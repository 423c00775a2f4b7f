"""End-to-end CLI tests driving dispatch() in process."""

import json

import pytest

from er_evalkit.cli import ENV_THREADS, dispatch, load_config_file
from er_evalkit.errors import ConfigError
from er_evalkit.jsonl import dumps


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_jsonl_file(path, rows):
    path.write_text("".join(dumps(row) + "\n" for row in rows),
                    encoding="utf-8")


def write_worked_fixture(tmp_path):
    """Two relevant entities, one found in the high bin at rank 1."""
    qrels = tmp_path / "qrels.jsonl"
    run = tmp_path / "run.jsonl"
    write_jsonl_file(qrels, [{"query": "q", "relevant": ["A", "B"]}])
    results = [
        {"entity_id": "A", "score": 0.97, "bin": "high"},
        {"entity_id": "C", "score": 0.86, "bin": "high"},
        {"entity_id": "D", "score": 0.65, "bin": "medium"},
        {"entity_id": "E", "score": 0.60, "bin": "medium"},
        {"entity_id": "F", "score": 0.21, "bin": "low"},
    ]
    write_jsonl_file(run, [{"query": "q", "results": results}])
    return qrels, run


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "no-such-command")
        assert code == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "evaluate", "--qrels", "q.jsonl")
        assert code == 2

    def test_simulate_requires_seed(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate",
                             "--out-dir", str(tmp_path / "sim"))
        assert code == 2

    def test_module_error_is_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "evaluate",
                               "--qrels", str(tmp_path / "absent.jsonl"),
                               "--run", str(tmp_path / "absent.jsonl"))
        assert code == 1
        assert err.startswith("error:")

    def test_help_is_zero_and_lists_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "defaults:" in out
        assert "min_impressions" in out
        assert "25" in out

    def test_success_is_zero(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        code, _, _ = run_cli(capsys, "evaluate",
                             "--qrels", str(qrels), "--run", str(run))
        assert code == 0


class TestEvaluateCommand:
    def test_stdout_json_matches_worked_example(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        code, out, _ = run_cli(capsys, "evaluate",
                               "--qrels", str(qrels), "--run", str(run))
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 5
        assert report["aggregates"]["precision@5"]["micro"] == 0.2
        assert report["aggregates"]["recall@5"]["micro"] == 0.5
        assert report["aggregates"]["precision@5@high"]["micro"] == 0.5
        assert report["aggregates"]["recall@5@medium"]["micro"] == 0.0

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        out_path = tmp_path / "report.json"
        _, out, _ = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                            "--run", str(run), "--out", str(out_path))
        assert json.loads(out_path.read_text()) == json.loads(out)

    def test_table_format(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        _, out, _ = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                            "--run", str(run), "--format", "table")
        assert "metric" in out
        assert "precision@5@high" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_k_flag(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        _, out, _ = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                            "--run", str(run), "-k", "1")
        report = json.loads(out)
        assert report["k"] == 1
        assert report["aggregates"]["precision@1"]["micro"] == 1.0


class TestConfigPrecedence:
    def test_config_file_overrides_default(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "settings.conf"
        config.write_text("# comment line\nk = 3\n", encoding="utf-8")
        _, out, _ = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                            "--run", str(run), "--config", str(config))
        assert json.loads(out)["k"] == 3

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "settings.conf"
        config.write_text("k = 3\n", encoding="utf-8")
        _, out, _ = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                            "--run", str(run), "--config", str(config),
                            "-k", "2")
        assert json.loads(out)["k"] == 2

    def test_dashed_keys_accepted(self, tmp_path):
        config = tmp_path / "settings.conf"
        config.write_text("min-impressions = 10\n", encoding="utf-8")
        assert load_config_file(config) == {"min_impressions": "10"}

    def test_malformed_config_line_rejected(self, tmp_path):
        config = tmp_path / "settings.conf"
        config.write_text("k 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="1"):
            load_config_file(config)

    def test_missing_config_file_is_module_error(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        code, _, err = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                               "--run", str(run),
                               "--config", str(tmp_path / "nope.conf"))
        assert code == 1
        assert "error:" in err


def simulate_fixture(capsys, tmp_path, name, seed=5, **overrides):
    out_dir = tmp_path / name
    argv = ["simulate", "--seed", str(seed), "--out-dir", str(out_dir),
            "--n-titles", "30", "--n-queries", "10",
            "--typo-rate", "0.0", "--score-noise-sigma", "0.0",
            "--n-replays", "40"]
    for key, value in overrides.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return out_dir, json.loads(out)


FIXTURE_FILES = ("basics.tsv", "ratings.tsv", "ranks.tsv",
                 "clicklog.jsonl", "run.jsonl", "truth_qrels.jsonl")


class TestSimulateCommand:
    def test_writes_all_fixture_files(self, capsys, tmp_path):
        out_dir, summary = simulate_fixture(capsys, tmp_path, "sim")
        assert summary["titles"] == 30
        assert summary["queries"] == 10
        assert summary["events"] == 400
        for name in FIXTURE_FILES:
            assert (out_dir / name).is_file()

    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        dir_a, _ = simulate_fixture(capsys, tmp_path, "a", seed=5)
        dir_b, _ = simulate_fixture(capsys, tmp_path, "b", seed=5)
        for name in FIXTURE_FILES:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_different_seed_differs(self, capsys, tmp_path):
        dir_a, _ = simulate_fixture(capsys, tmp_path, "a", seed=5)
        dir_b, _ = simulate_fixture(capsys, tmp_path, "b", seed=6)
        assert ((dir_a / "basics.tsv").read_bytes()
                != (dir_b / "basics.tsv").read_bytes())

    def test_invalid_thresholds_are_module_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--seed", "1",
                               "--out-dir", str(tmp_path / "sim"),
                               "--bin-thresholds", "0.5,0.8")
        assert code == 1
        assert "error:" in err


class TestPipeline:
    def test_simulated_fixture_flows_through_every_stage(self, capsys,
                                                         tmp_path):
        sim_dir, _ = simulate_fixture(capsys, tmp_path, "sim")

        catalog_path = tmp_path / "catalog.jsonl"
        code, out, err = run_cli(
            capsys, "ingest-catalog",
            "--basics", str(sim_dir / "basics.tsv"),
            "--ratings", str(sim_dir / "ratings.tsv"),
            "--ranks", str(sim_dir / "ranks.tsv"),
            "--out", str(catalog_path), "--strict")
        assert code == 0, err
        assert json.loads(out)["titles"] == 30

        scored_path = tmp_path / "scored.jsonl"
        code, out, err = run_cli(capsys, "score-importance",
                                 "--catalog", str(catalog_path),
                                 "--out", str(scored_path))
        assert code == 0, err
        assert json.loads(out)["scored"] == 30

        ctr_path = tmp_path / "ctr.jsonl"
        code, out, err = run_cli(capsys, "aggregate-ctr",
                                 "--events", str(sim_dir / "clicklog.jsonl"),
                                 "--out", str(ctr_path))
        assert code == 0, err
        summary = json.loads(out)
        assert summary["events"] == 400
        # Zero noise, zero typos: the truth sits at rank 1 and is clicked
        # at decay^0 = 0.7, so every query clears the 0.3 CTR floor.
        assert summary["kept"] == 10

        qrels_path = tmp_path / "qrels.jsonl"
        code, out, err = run_cli(capsys, "build-relevance",
                                 "--ctr", str(ctr_path),
                                 "--scored", str(scored_path),
                                 "--out", str(qrels_path),
                                 "--min-importance", "0.0")
        assert code == 0, err
        assert json.loads(out)["queries"] == 10
        assert (tmp_path / "qrels.provenance.jsonl").is_file()

        report_path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "evaluate",
                                 "--qrels", str(qrels_path),
                                 "--run", str(sim_dir / "run.jsonl"),
                                 "--out", str(report_path))
        assert code == 0, err
        report = json.loads(out)
        assert report["aggregates"]["recall@5"]["micro"] == 1.0
        assert report["aggregates"]["recall@5@high"]["micro"] == 1.0
        assert report["counts"]["evaluated"] == 10

        diagnoses_path = tmp_path / "diagnoses.jsonl"
        code, out, err = run_cli(capsys, "diagnose",
                                 "--qrels", str(qrels_path),
                                 "--run", str(sim_dir / "run.jsonl"),
                                 "--out", str(diagnoses_path),
                                 "--format", "table")
        assert code == 0, err
        assert "success" in out
        assert "consistent=true" in out
        assert diagnoses_path.read_text().count("\n") == 10

        delta_path = tmp_path / "delta.json"
        code, out, err = run_cli(capsys, "compare",
                                 "--baseline", str(report_path),
                                 "--candidate", str(report_path),
                                 "--out", str(delta_path))
        assert code == 0, err
        delta = json.loads(out)
        cells = [c for c in delta["cells"]
                 if c["metric"] == "recall@5@high" and c["mode"] == "micro"]
        assert cells[0]["absolute_label"] == "+0.00pp"
        assert delta_path.is_file()

    def test_compare_table_format(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        report_path = tmp_path / "report.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(report_path))
        code, out, err = run_cli(capsys, "compare",
                                 "--baseline", str(report_path),
                                 "--candidate", str(report_path),
                                 "--format", "table")
        assert code == 0, err
        assert "[micro]" in out
        assert "recall@5@high" in out


class TestThreads:
    def test_env_var_sets_thread_count(self, capsys, tmp_path, monkeypatch):
        sim_dir, _ = simulate_fixture(capsys, tmp_path, "sim")
        events = sim_dir / "clicklog.jsonl"

        single = tmp_path / "single.jsonl"
        code, _, err = run_cli(capsys, "aggregate-ctr", "--events",
                               str(events), "--out", str(single),
                               "--threads", "1")
        assert code == 0, err

        monkeypatch.setenv(ENV_THREADS, "4")
        threaded = tmp_path / "threaded.jsonl"
        code, _, err = run_cli(capsys, "aggregate-ctr", "--events",
                               str(events), "--out", str(threaded))
        assert code == 0, err
        assert single.read_bytes() == threaded.read_bytes()

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        sim_dir, _ = simulate_fixture(capsys, tmp_path, "sim")
        monkeypatch.setenv(ENV_THREADS, "not-a-number")
        out_path = tmp_path / "ctr.jsonl"
        code, _, err = run_cli(capsys, "aggregate-ctr",
                               "--events", str(sim_dir / "clicklog.jsonl"),
                               "--out", str(out_path), "--threads", "2")
        assert code == 0, err

    def test_bad_env_value_is_module_error(self, capsys, tmp_path,
                                           monkeypatch):
        sim_dir, _ = simulate_fixture(capsys, tmp_path, "sim")
        monkeypatch.setenv(ENV_THREADS, "0")
        code, _, err = run_cli(capsys, "aggregate-ctr",
                               "--events", str(sim_dir / "clicklog.jsonl"),
                               "--out", str(tmp_path / "ctr.jsonl"))
        assert code == 1
        assert "error:" in err


class TestStrictMode:
    def test_strict_aggregate_fails_on_malformed_line(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text('{"query": "q", "impressions": ["a"]}\n'
                          "not json\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "aggregate-ctr",
                               "--events", str(events),
                               "--out", str(tmp_path / "ctr.jsonl"),
                               "--strict", "--min-impressions", "1",
                               "--min-ctr", "0.0")
        assert code == 1
        assert "2" in err

    def test_lenient_aggregate_counts_rejects(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text('{"query": "q", "impressions": ["a"]}\n'
                          "not json\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "aggregate-ctr",
                               "--events", str(events),
                               "--out", str(tmp_path / "ctr.jsonl"),
                               "--min-impressions", "1", "--min-ctr", "0.0")
        assert code == 0
        summary = json.loads(out)
        assert summary["events"] == 1
        assert summary["rejected_events"] == 1

    def test_strict_names_lowest_bad_line(self, capsys, tmp_path):
        good = [{"query": f"q{i % 2}", "impressions": ["a", "b"],
                 "clicked": "a" if i % 3 else None} for i in range(6)]
        lines = [dumps(row) for row in good]
        lines.insert(2, "not json")
        lines.insert(6, '{"query":"q0","impressions":["a"],"clicked":"z"}')
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        flags = ("--min-impressions", "1", "--min-ctr", "0.0")

        out_path = tmp_path / "ctr.jsonl"
        code, _, err = run_cli(capsys, "aggregate-ctr", "--events",
                               str(events), "--out", str(out_path),
                               "--strict", *flags)
        assert code == 1
        error_lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(error_lines) == 1
        assert "events.jsonl:3:" in error_lines[0]
        assert not out_path.exists()

        clean = tmp_path / "clean.jsonl"
        write_jsonl_file(clean, good)
        expected = tmp_path / "expected.jsonl"
        code, _, err = run_cli(capsys, "aggregate-ctr", "--events",
                               str(clean), "--out", str(expected), *flags)
        assert code == 0, err
        code, out, err = run_cli(capsys, "aggregate-ctr", "--events",
                                 str(events), "--out", str(out_path), *flags)
        assert code == 0, err
        assert json.loads(out)["rejected_events"] == 2
        assert out_path.read_bytes() == expected.read_bytes()


class TestDiagnoseCommand:
    def test_target_bin_flag_changes_classification(self, capsys, tmp_path):
        qrels = tmp_path / "qrels.jsonl"
        run = tmp_path / "run.jsonl"
        write_jsonl_file(qrels, [{"query": "q", "relevant": ["A"]}])
        write_jsonl_file(run, [{
            "query": "q",
            "results": [{"entity_id": "A", "score": 0.6, "bin": "medium"}],
        }])
        _, out, _ = run_cli(capsys, "diagnose", "--qrels", str(qrels),
                            "--run", str(run))
        assert json.loads(out)["counts"]["binning_miss"] == 1
        _, out, _ = run_cli(capsys, "diagnose", "--qrels", str(qrels),
                            "--run", str(run), "--target-bin", "medium")
        assert json.loads(out)["counts"]["success"] == 1


class TestScoreImportanceFlags:
    def test_bad_weights_flag_is_module_error(self, capsys, tmp_path):
        catalog_path = tmp_path / "catalog.jsonl"
        write_jsonl_file(catalog_path, [
            {"entity_id": "tt1", "name": "Only", "release_year": 2000,
             "rank": 1, "rating_count": 10, "rating": 7.0},
        ])
        code, _, err = run_cli(capsys, "score-importance",
                               "--catalog", str(catalog_path),
                               "--out", str(tmp_path / "s.jsonl"),
                               "--weights", "0.5,0.5")
        assert code == 1
        assert "error:" in err
        assert "weights" in err

    def test_explicit_bounds_flag(self, capsys, tmp_path):
        catalog_path = tmp_path / "catalog.jsonl"
        write_jsonl_file(catalog_path, [
            {"entity_id": "tt1", "name": "Mid", "release_year": 2005,
             "rank": 10, "rating_count": 100, "rating": 7.0},
        ])
        out_path = tmp_path / "scored.jsonl"
        code, _, err = run_cli(capsys, "score-importance",
                               "--catalog", str(catalog_path),
                               "--out", str(out_path),
                               "--bounds", "1990,2020,1,100,1000")
        assert code == 0, err
        row = json.loads(out_path.read_text().splitlines()[0])
        assert row["release_year_score"] == 0.5
