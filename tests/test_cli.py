"""End-to-end CLI tests driving dispatch() in process."""

import hashlib
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from er_evalkit import clickstream, importance, relevance
from er_evalkit.cli import (
    _SIM_HELP,
    DEFAULTS,
    _converter,
    _defaults_epilog,
    _parse_numbers,
    _show,
    _weight,
    build_parser,
    dispatch,
    load_config_file,
)
from er_evalkit.clickstream import CtrFilter
from er_evalkit.importance import ImportanceConfig, ScoreBounds
from er_evalkit.errors import ConfigError
from er_evalkit.jsonl import dumps
from er_evalkit.simulate import SimConfig


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

    def test_interrupt_is_one(self, capsys, tmp_path, monkeypatch):
        """Ctrl-C, or SIGTERM, which main turns into KeyboardInterrupt."""
        qrels, run = write_worked_fixture(tmp_path)

        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(relevance, "load_qrels", interrupted)
        assert run_cli(capsys, "evaluate", "--qrels", str(qrels),
                       "--run", str(run)) == (1, "", "error: interrupted\n")

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

    def test_only_a_newline_ends_a_config_line(self, tmp_path):
        """Line numbers count file lines, as every other reader does."""
        config = tmp_path / "settings.conf"
        config.write_text("# a\x0cb\u2028c\nk = 3\x1e\nbogus\n",
                          encoding="utf-8")
        with pytest.raises(ConfigError) as raised:
            load_config_file(config)
        assert str(raised.value) == f"{config}:3: expected key = value"

    def test_unparsable_config_value_names_key_and_file(self, capsys,
                                                        tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "settings.conf"
        config.write_text("k = true\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                               "--run", str(run), "--config", str(config))
        assert_one_error_line(code, err)
        assert error_lines(err)[0] == (
            f"error: k 'true' from config file {config}: "
            "invalid literal for int() with base 10: 'true'")

    def test_unparsable_flag_value_names_key_and_flag(self, capsys,
                                                      tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--seed", "1",
                               "--out-dir", str(tmp_path / "sim"),
                               "--bin-thresholds", "0.5")
        assert_one_error_line(code, err)
        assert error_lines(err)[0].startswith(
            "error: bin_thresholds '0.5' from flag --bin-thresholds: ")

    def test_unknown_config_keys_warned_in_file_order(self, capsys,
                                                      tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "settings.conf"
        config.write_text("threds = 2\nk = 3\nmin_impresions = 1\n",
                          encoding="utf-8")
        code, out, err = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                                 "--run", str(run), "--config", str(config))
        assert code == 0
        assert json.loads(out)["k"] == 3
        assert err.splitlines() == [
            f"warning: config file {config}: key '{key}' names no setting; "
            "ignored" for key in ("threds", "min_impresions")]

    def test_every_known_config_key_accepted_silently(self, capsys,
                                                      tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "settings.conf"
        config.write_text("".join(
            f"{name.replace('_', '-')} = {_show(value)}\n"
            for name, value, _ in DEFAULTS)
            + "strict = false\nformat = json\n"
            "bounds = 1950,2010,10,2000,50000\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                               "--run", str(run), "--config", str(config))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("text,line,key,first", [
        ("k = 3\nk = 1\n", 2, "k", 1),
        ("# ctr\nmin-ctr = 0.1\n\nk = 3\nmin_ctr = 0.2\n", 5, "min_ctr", 2),
        ("bogus = 1\nbogus = 2\n", 2, "bogus", 1),
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, text, line, key,
                                           first):
        config = tmp_path / "settings.conf"
        config.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as raised:
            load_config_file(config)
        assert str(raised.value) == \
            f"{config}:{line}: key {key!r} repeats line {first}"

    def test_repeated_key_is_module_error(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "settings.conf"
        config.write_text("k = 3\nk = 1\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                                    "--run", str(run), "--out", str(out),
                                    "--config", str(config))
        assert (code, stdout, err) == (
            1, "", f"error: {config}:2: key 'k' repeats line 1\n")
        assert not out.exists()

    def test_missing_config_file_is_module_error(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        code, _, err = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                               "--run", str(run),
                               "--config", str(tmp_path / "nope.conf"))
        assert code == 1
        assert "error:" in err

    def test_empty_config_path_is_module_error(self, capsys, tmp_path):
        """``--config ""`` names a file like any other path argument: it
        is not read as no config file."""
        qrels, run = write_worked_fixture(tmp_path)
        code, out, err = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                                 "--run", str(run), "--config", "")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot read : ")


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


def test_each_summary_stage_prints_one_line_led_by_its_name(capsys,
                                                            tmp_path):
    """dispatch prints every summary: one JSON line, "command" first."""
    sim = tmp_path / "sim"
    stages = [
        ["simulate", "--seed", "5", "--out-dir", sim, "--n-titles", "30",
         "--n-queries", "10", "--n-replays", "40"],
        ["ingest-catalog", "--basics", sim / "basics.tsv", "--ratings",
         sim / "ratings.tsv", "--out", tmp_path / "catalog.jsonl"],
        ["score-importance", "--catalog", tmp_path / "catalog.jsonl",
         "--out", tmp_path / "scored.jsonl"],
        ["aggregate-ctr", "--events", sim / "clicklog.jsonl",
         "--out", tmp_path / "ctr.jsonl"],
        ["build-relevance", "--ctr", tmp_path / "ctr.jsonl",
         "--scored", tmp_path / "scored.jsonl",
         "--out", tmp_path / "qrels.jsonl"],
    ]
    for argv in stages:
        code, out, err = run_cli(capsys, *map(str, argv))
        assert (code, err) == (0, "")
        assert out.endswith("\n") and out.count("\n") == 1
        summary = json.loads(out)
        assert next(iter(summary.items())) == ("command", argv[0])
        assert "command" not in list(summary)[1:]


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


class TestNoThreadSetting:
    """Aggregation is one streaming pass; no setting names a worker count."""

    def test_threads_flag_is_usage_error(self, capsys, tmp_path):
        sim_dir, _ = simulate_fixture(capsys, tmp_path, "sim")
        code, _, _ = run_cli(capsys, "aggregate-ctr",
                             "--events", str(sim_dir / "clicklog.jsonl"),
                             "--out", str(tmp_path / "ctr.jsonl"),
                             "--threads", "2")
        assert code == 2

    def test_environment_and_config_line_are_ignored(self, capsys, tmp_path,
                                                     monkeypatch):
        sim_dir, _ = simulate_fixture(capsys, tmp_path, "sim")
        events = str(sim_dir / "clicklog.jsonl")
        plain = tmp_path / "plain.jsonl"
        code, _, err = run_cli(capsys, "aggregate-ctr", "--events", events,
                               "--out", str(plain))
        assert code == 0, err

        monkeypatch.setenv("ER_EVALKIT_THREADS", "0")
        with_env = tmp_path / "with_env.jsonl"
        code, _, err = run_cli(capsys, "aggregate-ctr", "--events", events,
                               "--out", str(with_env))
        assert code == 0, err
        assert with_env.read_bytes() == plain.read_bytes()

        config = tmp_path / "threads.conf"
        config.write_text("threads = 0\n", encoding="utf-8")
        with_config = tmp_path / "with_config.jsonl"
        code, _, err = run_cli(capsys, "aggregate-ctr", "--events", events,
                               "--out", str(with_config),
                               "--config", str(config))
        assert code == 0, err
        assert with_config.read_bytes() == plain.read_bytes()


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

    @pytest.mark.parametrize("value", ["yes", "off", "maybe"])
    def test_strict_from_config_reaches_ingest_catalog(self, capsys, tmp_path,
                                                       value):
        basics = tmp_path / "basics.tsv"
        basics.write_text("tconst\tprimaryTitle\tstartYear\n"
                          "tt1\tA\t2000\ntt2\tB\t19x9\n", encoding="utf-8")
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text("tconst\taverageRating\tnumVotes\n",
                           encoding="utf-8")
        config = tmp_path / "settings.conf"
        config.write_text(f"strict = {value}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "ingest-catalog", "--basics",
                                 str(basics), "--ratings", str(ratings),
                                 "--out", str(tmp_path / "catalog.jsonl"),
                                 "--config", str(config))
        if value == "off":
            assert (code, err) == (0, "")
            assert json.loads(out)["rejects"] == 1
        else:
            assert (code, out) == (1, "")
            assert err == {
                "yes": f"error: {basics}:3: unparseable year '19x9'\n",
                "maybe": f"error: strict 'maybe' from config file {config}: "
                         "not a boolean: 'maybe'\n"}[value]


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


    @pytest.mark.parametrize("value,code", [("medium", 0), ("huge", 1)])
    def test_target_bin_from_config_file(self, capsys, tmp_path, value, code):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "settings.conf"
        config.write_text(f"target-bin = {value}\n", encoding="utf-8")
        got, out, err = run_cli(capsys, "diagnose", "--qrels", str(qrels),
                                "--run", str(run), "--config", str(config))
        assert got == code
        assert len(error_lines(err)) == code
        if code == 0:
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


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


class TestOutputFormat:
    @pytest.mark.parametrize("command", ["evaluate", "diagnose", "compare"])
    def test_misspelled_format_in_config_is_module_error(self, capsys,
                                                         tmp_path, command):
        qrels, run = write_worked_fixture(tmp_path)
        report = tmp_path / "report.json"
        assert run_cli(capsys, "evaluate", "--qrels", str(qrels),
                       "--run", str(run), "--out", str(report))[0] == 0
        config = tmp_path / "settings.conf"
        config.write_text("format = tabel\n", encoding="utf-8")
        out = tmp_path / "out"
        inputs = (["--baseline", str(report), "--candidate", str(report)]
                  if command == "compare"
                  else ["--qrels", str(qrels), "--run", str(run)])
        code, stdout, err = run_cli(capsys, command, *inputs,
                                    "--out", str(out), "--config", str(config))
        assert code == 1
        assert stdout == ""
        assert len(error_lines(err)) == 1
        assert "tabel" in err
        assert not out.exists()

    def test_table_from_config_file(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "settings.conf"
        config.write_text("format = table\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "diagnose", "--qrels", str(qrels),
                               "--run", str(run), "--config", str(config))
        assert code == 0
        assert "consistent=true" in out


class TestCompareMalformedReport:
    @pytest.mark.parametrize("text", [
        '{"k": 5}',
        '[]',
        '{"k": 5, "bins": ["high", "medium", "low"], "counts": {}, '
        '"aggregates": {}, "per_query": {}}',
        '{"k": 5, "bins": [], "counts": {}, "aggregates": [], '
        '"per_query": {}}',
        'not json',
    ])
    def test_exits_one_with_one_error_line(self, capsys, tmp_path, text):
        qrels, run = write_worked_fixture(tmp_path)
        good = tmp_path / "good.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(good))
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "compare", "--baseline", str(bad),
                               "--candidate", str(good))
        assert code == 1
        assert len(error_lines(err)) == 1
        assert "bad.json" in error_lines(err)[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("k", "5"), ("k", True), ("k", 0), ("k", 5.0),
        ("bins", "xyz"), ("bins", ["high", 1]), ("bins", {"high": 1}),
        ("counts", {"evaluated": "1"}), ("counts", {"evaluated": True}),
        ("counts", [1]),
    ])
    def test_header_types_checked(self, capsys, tmp_path, field, value):
        qrels, run = write_worked_fixture(tmp_path)
        good = tmp_path / "good.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(good))
        report = json.loads(good.read_text())
        report[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(report), encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--baseline", str(bad),
                                 "--candidate", str(good))
        assert code == 1
        assert out == ""
        assert len(error_lines(err)) == 1
        assert "bad.json" in error_lines(err)[0]
        assert f"{field} must be" in error_lines(err)[0]
        assert "Traceback" not in err

    def test_reports_that_disagree_on_bins(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        good = tmp_path / "good.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(good))
        report = json.loads(good.read_text())
        report["bins"] = ["high", "low", "medium"]
        other = tmp_path / "other.json"
        other.write_text(dumps(report), encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--baseline", str(good),
                                 "--candidate", str(other))
        assert (code, out, err) == (
            1, "", "error: reports disagree on bins: ('high', 'medium', "
            "'low') vs ('high', 'low', 'medium')\n")


class TestCompareValueRange:
    def test_value_outside_unit_interval_is_one_error_line(self, capsys,
                                                            tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        good = tmp_path / "good.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(good))
        report = json.loads(good.read_text())
        report["aggregates"]["recall@5"]["micro"] = 7.5
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(report), encoding="utf-8")
        delta = tmp_path / "delta.json"
        code, out, err = run_cli(capsys, "compare", "--baseline", str(bad),
                                 "--candidate", str(good), "--out", str(delta))
        assert (code, out) == (1, "")
        assert err == (f"error: cannot load report {bad}: micro of "
                       "'recall@5' must be in [0, 1], got 7.5\n")
        assert not delta.exists()


# sha256 of the --help defaults table as it was written out by hand, before
# the rows were rendered from the module constants, less the row of the
# removed `threads` setting (the column widths are unchanged).
DEFAULTS_EPILOG = \
    "e9900dafe29c3b94baad5e8c4bf36e6aaad8661bb6f89a979438f9feb9f12477"

README = Path(__file__).resolve().parents[1] / "README.md"


# sha256 of `--help` at 80 columns, top level ("") and per subcommand, as
# printed when every long option still named its own dest; argparse derives
# the same dests, so the bytes must not move.
HELP_DIGESTS = {
    "": "72ba6851f082781252b01e4a5e8ccec0e1f543788aa22cb6888ace892908da56",
    "ingest-catalog":
        "e11e89ab477c9b8cc9f5c4282a44a9f2295d0bea03455b09d7b5dedfb1ea99ae",
    "score-importance":
        "d48f9d899022d7242519b8d5ef342961500cbdd892cf22f3343d13905426a326",
    "aggregate-ctr":
        "76539c1615b453dcffa17801dae67ab50763b709cdfc4b551eed85eade39efaf",
    "build-relevance":
        "b6aa6640e52ca751b060667806589ce5a78ec934e78609202b09d578f8f26234",
    "evaluate":
        "8955aa577d63fc594d8ec4db3583c540625f2167dca2b53fdc3f347738abe40e",
    "diagnose":
        "cfbcbcc0427ec6e3e674f9b59e5ed976cd00eadc212940377eaa183f6c18211b",
    "compare":
        "24bd7dc5588ed1f3cae351e8c1171f1bbd82cc4c4afcaff6f3ce1c204e17db87",
    "simulate":
        "29621db55cc21b6056ccfcdbb888452e946c49cbf8f3ce8e8d76fc1ede23bbb9",
}


# 3.13's argparse wraps a usage line differently; 3.10 to 3.12 agree.
HELP_DIGESTS_313 = {
    "": "4c7e60070b19b1b7690f107cd85148cf78b35e6e40d2a642b126eab24d49043a",
    "aggregate-ctr":
        "601acbfacf430abe1c21eb03f46d9120e65a34c7b9cba3aff7fb992f2eeeff81",
    "build-relevance":
        "d8b35615f2369216e4771b2ab01c260116159573440eff272289cea68c7173ed",
    "simulate":
        "24fcdb33dbbd1115d9095a807253967250140b537efa95e21dc716317c5dfe53",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_bytes_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *filter(None, [command, "--help"]))
    assert (code, err) == (0, "")
    pinned = {**HELP_DIGESTS, **(HELP_DIGESTS_313
                                 if sys.version_info >= (3, 13) else {})}
    assert hashlib.sha256(out.encode()).hexdigest() == pinned[command]


def simulate_flags():
    """{dest: action} for simulate's tuning flags, the non-seed fields."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {a.dest: a for a in sub.choices["simulate"]._actions
            if a.option_strings and a.dest not in
            ("help", "config", "seed", "out_dir")}


class TestDefaults:
    def test_epilog_bytes_unchanged(self):
        digest = hashlib.sha256(_defaults_epilog().encode()).hexdigest()
        assert digest == DEFAULTS_EPILOG

    def test_weights_row_parses_back_to_the_default_weights(self):
        shown = dict((name, value) for name, value, _ in DEFAULTS)
        text = ",".join(shown["weights"])
        assert _parse_numbers(text, 3, "weights", _weight) == \
            ImportanceConfig().weights

    def test_simulate_rows_follow_sim_config(self):
        shown = {name: value for name, value, _ in DEFAULTS}
        for f in fields(SimConfig):
            if f.name != "seed":
                assert shown[f.name] == f.default

    def test_one_simulate_flag_per_sim_config_field(self):
        flags = simulate_flags()
        rows = {name: help_text for name, _, help_text in DEFAULTS}
        names = [f.name for f in fields(SimConfig) if f.name != "seed"]
        assert sorted(flags) == sorted(names)
        for name in names:
            action = flags[name]
            assert action.option_strings == [f"--{name.replace('_', '-')}"]
            assert action.help == _SIM_HELP[name]
            assert rows[name] == f"simulate: {_SIM_HELP[name]}"
        # bin_thresholds stays a string that Settings.get parses.
        assert {name: action.type for name, action in flags.items()} == {
            "n_titles": int, "n_queries": int, "typo_rate": float,
            "score_noise_sigma": float, "bin_thresholds": None,
            "retrieve_m": int, "click_position_decay": float,
            "n_replays": int,
        }

    @pytest.mark.parametrize("cls,stage", [
        (ImportanceConfig, "score-importance"), (CtrFilter, "aggregate-ctr")])
    def test_one_flag_per_stage_config_field(self, cls, stage):
        """Each field has a flag on its stage and, bounds aside, a defaults
        row that parses back to its default."""
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {a.dest: a for a in sub.choices[stage]._actions}
        shown = {name: value for name, value, _ in DEFAULTS}
        for f in fields(cls):
            assert flags[f.name].option_strings == \
                [f"--{f.name.replace('_', '-')}"]
            if f.name != "bounds":
                assert _converter(f.name, f.default)(
                    _show(shown[f.name])) == f.default

    @pytest.mark.parametrize("stage,config,built", [
        ("score-importance", {
            "weights": "1/2,1/4,1/4", "missing_feature_policy":
            "exclude_title", "default_component_score": "0.25",
            "bounds": "1900,2000,1,10,100"},
         ImportanceConfig((0.5, 0.25, 0.25), "exclude_title", 0.25,
                          ScoreBounds(1900, 2000, 1, 10, 100))),
        ("aggregate-ctr", {"min_impressions": "3", "min_ctr": "0.5"},
         CtrFilter(3, 0.5)),
    ])
    def test_config_file_reaches_each_stage_config_field(
            self, capsys, tmp_path, monkeypatch, stage, config, built):
        """A config-file value for every field reaches the object the stage
        builds; each value differs from its field's default."""
        assert all(getattr(built, f.name) != f.default
                   for f in fields(built))
        seen = []
        module, name = {"score-importance": (importance, "score_titles"),
                        "aggregate-ctr": (clickstream, "aggregate_log")}[stage]
        original = getattr(module, name)

        def spy(source, stage_config, *args, **kwargs):
            seen.append(stage_config)
            return original(source, stage_config, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        (tmp_path / "cfg").write_text("".join(
            f"{key} = {value}\n" for key, value in config.items()),
            encoding="utf-8")
        write_jsonl_file(tmp_path / "in.jsonl", [
            {"entity_id": "tt1", "name": "A", "release_year": 1950,
             "rank": 2, "rating_count": 5}
            if stage == "score-importance" else
            {"query": "q", "impressions": ["tt1"], "clicked": "tt1"}])
        inputs = "--catalog" if stage == "score-importance" else "--events"
        code, _, err = run_cli(capsys, stage,
                               inputs, str(tmp_path / "in.jsonl"),
                               "--out", str(tmp_path / "out.jsonl"),
                               "--config", str(tmp_path / "cfg"))
        assert code == 0, err
        assert seen == [built]

    @pytest.mark.parametrize("flag,value,code", [
        ("--n-titles", "abc", 2), ("--typo-rate", "x", 2),
        ("--bin-thresholds", "0.9", 1), ("--bin-thresholds", "a,b", 1),
    ])
    def test_bad_simulate_flag_values(self, capsys, tmp_path, flag, value,
                                      code):
        got, _, err = run_cli(capsys, "simulate", "--seed", "1",
                              "--out-dir", str(tmp_path / "sim"), flag, value)
        assert got == code
        if code == 1:
            assert len(error_lines(err)) == 1

    def test_readme_table_matches_help(self, capsys):
        _, out, _ = run_cli(capsys, "--help")
        shown = dict(line.split()[:2] for line in
                     out.split("defaults:\n", 1)[1].splitlines())
        text = README.read_text(encoding="utf-8")
        table = text.split("| key | default | meaning |\n", 1)[1]
        rows = [line for line in table.split("\n\n", 1)[0].splitlines()
                if line.startswith("| `")]
        assert rows
        for row in rows:
            key, value = (cell.strip() for cell in row.split("|")[1:3])
            key = key.strip("`")
            assert key in shown, row
            assert value == shown[key], row

    def test_simulate_reads_config_file_like_flags(self, capsys, tmp_path):
        flags_dir, _ = simulate_fixture(capsys, tmp_path, "flags",
                                        bin_thresholds="0.9,0.4",
                                        click_position_decay=0.5)
        config = tmp_path / "sim.conf"
        config.write_text("n_titles = 30\nn_queries = 10\ntypo_rate = 0.0\n"
                          "score_noise_sigma = 0.0\nn_replays = 40\n"
                          "bin_thresholds = 0.9,0.4\n"
                          "click-position-decay = 0.5\n", encoding="utf-8")
        config_dir = tmp_path / "config"
        code, _, err = run_cli(capsys, "simulate", "--seed", "5",
                               "--out-dir", str(config_dir),
                               "--config", str(config))
        assert code == 0, err
        for name in FIXTURE_FILES:
            assert (config_dir / name).read_bytes() == \
                (flags_dir / name).read_bytes()

    @pytest.mark.parametrize("weights,code", [
        ("1/2,1/4,1/4", 0), ("0.5,0.25,0.25", 0), ("1/0,0,0", 1),
        ("1/3,1/3", 1), ("a,b,c", 1),
    ])
    def test_weights_accept_fractions(self, capsys, tmp_path, weights, code):
        catalog_path = tmp_path / "catalog.jsonl"
        write_jsonl_file(catalog_path, [
            {"entity_id": "tt1", "name": "Only", "release_year": 2000,
             "rank": 1, "rating_count": 10, "rating": 7.0},
        ])
        got, _, err = run_cli(capsys, "score-importance",
                              "--catalog", str(catalog_path),
                              "--out", str(tmp_path / "s.jsonl"),
                              "--weights", weights)
        assert got == code
        assert len(error_lines(err)) == code


GOOD_TITLE = {"entity_id": "tt1", "name": "Only", "release_year": 2000,
              "rank": 1, "rating_count": 10, "rating": 7.0}
GOOD_SCORED = {"entity_id": "tt1", "release_year_score": 0.5,
               "rank_score": 0.5, "rating_count_score": 0.5,
               "importance": 0.5}


def assert_one_error_line(code, err):
    assert code == 1
    assert len(error_lines(err)) == 1
    assert "Traceback" not in err


class TestInputTyping:
    """Malformed values in each loaded file exit 1 with one error line."""

    @pytest.mark.parametrize("weights", [
        "nan,0,1", "0.5,nan,0.5", "nan,nan,nan", "inf,0,0", "-inf,1,1",
    ])
    def test_non_finite_weights_rejected(self, capsys, tmp_path, weights):
        catalog_path = tmp_path / "catalog.jsonl"
        write_jsonl_file(catalog_path, [GOOD_TITLE])
        out = tmp_path / "s.jsonl"
        code, _, err = run_cli(capsys, "score-importance",
                               "--catalog", str(catalog_path),
                               "--out", str(out), f"--weights={weights}")
        assert_one_error_line(code, err)
        assert "weights" in err
        assert not out.exists()

    def test_non_finite_weights_rejected_by_config(self):
        with pytest.raises(ConfigError, match="finite"):
            ImportanceConfig(weights=(float("nan"), 0.0, 1.0))

    @pytest.mark.parametrize("field,value", [
        ("release_year", "1999"), ("release_year", True),
        ("release_year", 1999.0), ("rank", False), ("rank", "3"),
        ("rating_count", 10.5), ("rating_count", True),
        ("rating", "7.5"), ("rating", True), ("rating", float("nan")),
        ("rating", float("inf")),
    ])
    def test_catalog_optional_fields_typed(self, capsys, tmp_path, field,
                                           value):
        catalog_path = tmp_path / "catalog.jsonl"
        write_jsonl_file(catalog_path, [
            GOOD_TITLE, {**GOOD_TITLE, "entity_id": "tt2", field: value}])
        code, _, err = run_cli(capsys, "score-importance",
                               "--catalog", str(catalog_path),
                               "--out", str(tmp_path / "s.jsonl"))
        assert_one_error_line(code, err)
        assert f"{field} must be" in err

    @pytest.mark.parametrize("field,value", [
        ("rank", 0), ("rank", -3), ("rating_count", -1), ("rating", -0.5),
        ("rating", 10.5), ("rating", 11),
    ])
    def test_catalog_ranges_checked_on_load(self, capsys, tmp_path, field,
                                            value):
        catalog_path = tmp_path / "catalog.jsonl"
        write_jsonl_file(catalog_path, [
            GOOD_TITLE, {**GOOD_TITLE, "entity_id": "tt2", field: value}])
        code, _, err = run_cli(capsys, "score-importance",
                               "--catalog", str(catalog_path),
                               "--out", str(tmp_path / "s.jsonl"))
        assert_one_error_line(code, err)
        assert f"catalog.jsonl:2: bad catalog record: {field} {value}" in err

    def test_catalog_range_bounds_load(self, capsys, tmp_path):
        catalog_path = tmp_path / "catalog.jsonl"
        write_jsonl_file(catalog_path, [
            {**GOOD_TITLE, "rank": 1, "rating_count": 0, "rating": 0},
            {**GOOD_TITLE, "entity_id": "tt2", "rank": 2, "rating": 10.0}])
        code, _, err = run_cli(capsys, "score-importance",
                               "--catalog", str(catalog_path),
                               "--out", str(tmp_path / "s.jsonl"))
        assert code == 0, err

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("column", [1, 2])
    def test_tsv_cell_over_field_limit(self, capsys, tmp_path, strict,
                                       column):
        row = ["tt1", "Title", "2000"]
        row[column] = "x" * 200_000
        basics = tmp_path / "basics.tsv"
        basics.write_text("tconst\tprimaryTitle\tstartYear\n"
                          "tt0\tFine\t1999\n" + "\t".join(row) + "\n",
                          encoding="utf-8")
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text("tconst\taverageRating\tnumVotes\n",
                           encoding="utf-8")
        out = tmp_path / "catalog.jsonl"
        argv = ["ingest-catalog", "--basics", str(basics),
                "--ratings", str(ratings), "--out", str(out)]
        code, _, err = run_cli(capsys, *argv + ["--strict"] * strict)
        assert_one_error_line(code, err)
        assert "basics.tsv:3:" in err
        assert "field larger than field limit" in err
        assert not out.exists()

    def test_catalog_optional_fields_may_be_null_or_absent(self, capsys,
                                                           tmp_path):
        catalog_path = tmp_path / "catalog.jsonl"
        write_jsonl_file(catalog_path, [
            GOOD_TITLE,
            {**GOOD_TITLE, "entity_id": "tt2", "rating": None, "rank": 5},
            {"entity_id": "tt3", "name": "Bare"}])
        code, _, err = run_cli(capsys, "score-importance",
                               "--catalog", str(catalog_path),
                               "--out", str(tmp_path / "s.jsonl"))
        assert code == 0, err

    @pytest.mark.parametrize("field,value", [
        ("importance", float("nan")), ("importance", float("inf")),
        ("importance", 7.5), ("importance", -0.1), ("importance", "0.5"),
        ("importance", True), ("release_year_score", float("nan")),
        ("rank_score", 1.5), ("rating_count_score", -1),
        ("rating_count_score", True), ("rank_score", None),
        ("entity_id", 1),
    ])
    def test_scored_values_checked(self, capsys, tmp_path, field, value):
        ctr_path = tmp_path / "ctr.jsonl"
        write_jsonl_file(ctr_path, [{"query": "q", "entity_id": "tt1",
                                     "nimp": 10, "nclick": 5, "ctr": 0.5}])
        scored_path = tmp_path / "scored.jsonl"
        write_jsonl_file(scored_path, [{**GOOD_SCORED, field: value}])
        out = tmp_path / "qrels.jsonl"
        code, _, err = run_cli(capsys, "build-relevance",
                               "--ctr", str(ctr_path),
                               "--scored", str(scored_path),
                               "--out", str(out))
        assert_one_error_line(code, err)
        assert field in err
        assert not out.exists()

    def test_repeated_ctr_pair_rejected(self, capsys, tmp_path):
        ctr_path = tmp_path / "ctr.jsonl"
        write_jsonl_file(ctr_path, [
            {"query": "q", "entity_id": "tt1", "nimp": 30, "nclick": 15,
             "ctr": 0.5},
            {"query": "q", "entity_id": "tt1", "nimp": 40, "nclick": 30,
             "ctr": 0.75}])
        scored_path = tmp_path / "scored.jsonl"
        write_jsonl_file(scored_path, [GOOD_SCORED])
        out = tmp_path / "qrels.jsonl"
        code, stdout, err = run_cli(capsys, "build-relevance",
                                    "--ctr", str(ctr_path),
                                    "--scored", str(scored_path),
                                    "--out", str(out))
        assert_one_error_line(code, err)
        assert stdout == ""
        assert error_lines(err)[0] == (f"error: {ctr_path}:2: bad CTR record: "
                                       "duplicate pair ('q', 'tt1')")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["ctr.jsonl", "scored.jsonl"]

    @pytest.mark.parametrize("importances", [(0.1, 0.9), (0.9, 0.1)])
    def test_named_title_scored_twice_rejected(self, capsys, tmp_path,
                                               importances):
        """Either line order would otherwise decide the qrels."""
        ctr_path = tmp_path / "ctr.jsonl"
        write_jsonl_file(ctr_path, [{"query": "q", "entity_id": "tt1",
                                     "nimp": 30, "nclick": 15, "ctr": 0.5}])
        scored_path = tmp_path / "scored.jsonl"
        write_jsonl_file(scored_path, [{**GOOD_SCORED, "importance": value}
                                       for value in importances])
        code, stdout, err = run_cli(capsys, "build-relevance",
                                    "--ctr", str(ctr_path),
                                    "--scored", str(scored_path),
                                    "--out", str(tmp_path / "qrels.jsonl"))
        assert (code, stdout) == (1, "")
        assert err == "error: duplicate scored entity_id 'tt1'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["ctr.jsonl", "scored.jsonl"]

    @pytest.mark.parametrize("provenance", ["q.jsonl", "./q.jsonl"])
    def test_provenance_naming_the_qrels_output_rejected(
            self, capsys, tmp_path, monkeypatch, provenance):
        monkeypatch.chdir(tmp_path)
        write_jsonl_file(tmp_path / "ctr.jsonl", [{
            "query": "q", "entity_id": "tt1", "nimp": 10, "nclick": 5,
            "ctr": 0.5}])
        write_jsonl_file(tmp_path / "scored.jsonl", [GOOD_SCORED])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code, out, err = run_cli(capsys, "build-relevance",
                                 "--ctr", "ctr.jsonl",
                                 "--scored", "scored.jsonl",
                                 "--out", "q.jsonl",
                                 "--provenance", provenance)
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err)[0] == \
            "error: provenance path q.jsonl is the qrels output q.jsonl"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_unwritable_sidecar_leaves_the_old_qrels(self, capsys, tmp_path,
                                                     monkeypatch):
        """The qrels file and its sidecar land together or not at all."""
        monkeypatch.chdir(tmp_path)
        write_jsonl_file(tmp_path / "ctr.jsonl", [{
            "query": "q", "entity_id": "tt1", "nimp": 30, "nclick": 15,
            "ctr": 0.5}])
        write_jsonl_file(tmp_path / "scored.jsonl", [GOOD_SCORED])
        (tmp_path / "q.jsonl").write_text("old\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code, out, err = run_cli(capsys, "build-relevance",
                                 "--ctr", "ctr.jsonl",
                                 "--scored", "scored.jsonl",
                                 "--out", "q.jsonl",
                                 "--provenance", "absent/p.jsonl")
        assert (code, out) == (1, "")
        assert err == ("error: cannot write absent/p.jsonl: [Errno 2] No such "
                       "file or directory: 'absent/.p.jsonl."
                       f"{os.getpid()}.tmp'\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("directory", ["q.jsonl", "p.jsonl"])
    def test_directory_target_lands_neither_file(self, capsys, tmp_path,
                                                 monkeypatch, directory):
        """Whichever of the qrels file and its sidecar is a directory, the
        other keeps its old bytes, and one error line names the directory."""
        monkeypatch.chdir(tmp_path)
        write_jsonl_file(tmp_path / "ctr.jsonl", [{
            "query": "q", "entity_id": "tt1", "nimp": 30, "nclick": 15,
            "ctr": 0.5}])
        write_jsonl_file(tmp_path / "scored.jsonl", [GOOD_SCORED])
        for name in ("q.jsonl", "p.jsonl"):
            if name == directory:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text("old\n", encoding="utf-8")

        def snapshot():
            return {p.name: p.read_bytes() if p.is_file() else None
                    for p in tmp_path.iterdir()}

        before = snapshot()
        code, out, err = run_cli(capsys, "build-relevance",
                                 "--ctr", "ctr.jsonl",
                                 "--scored", "scored.jsonl",
                                 "--out", "q.jsonl", "--provenance", "p.jsonl")
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {directory}: is a directory\n"
        assert snapshot() == before

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_rejected(self, capsys, tmp_path, sigma):
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(capsys, "simulate", "--seed", "1",
                                 "--n-titles", "5", "--n-queries", "2",
                                 "--score-noise-sigma", sigma,
                                 "--out-dir", str(out_dir))
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err)[0] == (
            f"error: score_noise_sigma must be finite and >= 0, got {sigma}")
        assert not out_dir.exists()

    def test_noise_sigma_that_can_overflow_a_score_rejected(self, capsys,
                                                           tmp_path):
        """A finite sigma so large that a noise draw overflows a score to
        infinity, which JSON cannot hold, is refused before any output."""
        out_dir = tmp_path / "sim"
        code, out, err = run_cli(capsys, "simulate", "--seed", "1",
                                 "--score-noise-sigma", "1e308",
                                 "--n-titles", "50", "--n-queries", "5",
                                 "--out-dir", str(out_dir))
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err)[0] == (
            "error: score_noise_sigma must keep scores finite (noise reaches "
            "8.5717 sigma), got 1e+308")
        assert not out_dir.exists()

    def test_report_row_missing_a_column_rejected(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        good = tmp_path / "good.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(good))
        report = json.loads(good.read_text())
        del report["per_query"]["q"]["precision@1@high"]
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(report), encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--baseline", str(good),
                                 "--candidate", str(bad))
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err)[0] == (
            f"error: {bad}: not a metrics report: KeyError('precision@1@high')")

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_huge_integer_run_score_rejected(self, capsys, tmp_path,
                                             command):
        qrels, run = write_worked_fixture(tmp_path)
        huge = 10 ** 400
        run.write_text(dumps({"query": "q", "results": [
            {"entity_id": "A", "score": huge, "bin": "high"}]}) + "\n",
            encoding="utf-8")
        code, _, err = run_cli(capsys, command, "--qrels", str(qrels),
                               "--run", str(run))
        assert_one_error_line(code, err)
        assert error_lines(err)[0] == (
            f"error: {run}:1: bad run record: score must be finite, "
            f"got {huge}")

    def test_huge_integer_report_value_rejected(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        good = tmp_path / "good.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(good))
        report = json.loads(good.read_text())
        report["aggregates"]["recall@5"]["micro"] = 10 ** 400
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(report), encoding="utf-8")
        code, _, err = run_cli(capsys, "compare", "--baseline", str(bad),
                               "--candidate", str(good))
        assert_one_error_line(code, err)
        assert error_lines(err)[0].startswith(
            f"error: cannot load report {bad}: micro must be finite, got 1000")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_reversed_year_window_rejected_before_reading(self, capsys,
                                                         tmp_path, source):
        argv = ["ingest-catalog", "--basics", str(tmp_path / "no-basics.tsv"),
                "--ratings", str(tmp_path / "no-ratings.tsv"),
                "--out", str(tmp_path / "catalog.jsonl")]
        if source == "flag":
            argv += ["--year-window", "2100,1870"]
        else:
            config = tmp_path / "settings.conf"
            config.write_text("year_window = 2100,1870\n", encoding="utf-8")
            argv += ["--config", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err)[0] == \
            "error: year_window 2100,1870 is reversed: 2100 > 1870"

    def test_empty_basics_file(self, capsys, tmp_path):
        basics = tmp_path / "basics.tsv"
        basics.write_bytes(b"")
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text("tconst\taverageRating\tnumVotes\n",
                           encoding="utf-8")
        code, out, err = run_cli(capsys, "ingest-catalog", "--basics",
                                 str(basics), "--ratings", str(ratings),
                                 "--out", str(tmp_path / "catalog.jsonl"))
        assert (code, out, err) == (
            1, "", f"error: {basics}: missing header row\n")

    @pytest.mark.parametrize("value", ["0.5", float("nan"), float("inf"),
                                       True, [0.5], {"v": 1}])
    @pytest.mark.parametrize("where", ["aggregate", "per_query"])
    def test_report_values_checked(self, capsys, tmp_path, value, where):
        qrels, run = write_worked_fixture(tmp_path)
        good = tmp_path / "good.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(good))
        report = json.loads(good.read_text())
        if where == "aggregate":
            report["aggregates"]["recall@5"]["micro"] = value
        else:
            report["per_query"]["q"]["recall@5"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(report), encoding="utf-8")
        code, _, err = run_cli(capsys, "compare", "--baseline", str(bad),
                               "--candidate", str(good))
        assert_one_error_line(code, err)
        assert "bad.json" in error_lines(err)[0]


# JSON values the decoder cannot take: an integer literal over the
# interpreter's 4,300-digit limit, and nesting far past the recursion limit.
UNDECODABLE = {"digits": "1" * 5001,
               "nesting": "[" * 100_000 + "]" * 100_000}
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff"


def not_utf8(line, offset):
    return (f"{NOT_UTF8} on line {line} at byte offset {offset}: "
            "invalid start byte")


class TestUndecodableInput:
    """Values json cannot decode, and files that are not UTF-8, exit 1 with
    one error line naming the file, never a traceback."""

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize("value", sorted(UNDECODABLE))
    def test_run_score(self, capsys, tmp_path, command, value):
        qrels, run = write_worked_fixture(tmp_path)
        run.write_text('{"query":"q","results":[{"entity_id":"A","score":'
                       + UNDECODABLE[value] + ',"bin":"high"}]}\n',
                       encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--qrels", str(qrels),
                                 "--run", str(run))
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err)[0].startswith(f"error: {run}:1: invalid JSON: ")

    @pytest.mark.parametrize("value", sorted(UNDECODABLE))
    def test_report(self, capsys, tmp_path, value):
        qrels, run = write_worked_fixture(tmp_path)
        good = tmp_path / "good.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(good))
        bad = tmp_path / "bad.json"
        bad.write_text('{"k":' + UNDECODABLE[value] + "}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--baseline", str(bad),
                                 "--candidate", str(good))
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err)[0].startswith(
            f"error: cannot load report {bad}: invalid JSON: ")

    def write_clicklog(self, tmp_path, value):
        events = tmp_path / "clicklog.jsonl"
        events.write_text('{"query":"q","impressions":["a"],"ts":'
                          + UNDECODABLE[value] + "}\n"
                          '{"query":"q","impressions":["a"],"clicked":"a"}\n',
                          encoding="utf-8")
        return events

    @pytest.mark.parametrize("value", sorted(UNDECODABLE))
    def test_click_log_lenient(self, capsys, tmp_path, value):
        events = self.write_clicklog(tmp_path, value)
        code, out, err = run_cli(capsys, "aggregate-ctr", "--events",
                                 str(events), "--out", str(tmp_path / "c.jsonl"))
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert (summary["events"], summary["rejected_events"]) == (1, 1)

    @pytest.mark.parametrize("value", sorted(UNDECODABLE))
    def test_click_log_strict(self, capsys, tmp_path, value):
        events = self.write_clicklog(tmp_path, value)
        out_path = tmp_path / "c.jsonl"
        code, out, err = run_cli(capsys, "aggregate-ctr", "--events",
                                 str(events), "--out", str(out_path),
                                 "--strict")
        assert_one_error_line(code, err)
        assert error_lines(err)[0].startswith(
            f"error: {events}:1: invalid JSON: ")
        assert not out_path.exists()

    @pytest.mark.parametrize("strict", [False, True])
    def test_jsonl_not_utf8(self, capsys, tmp_path, strict):
        events = tmp_path / "clicklog.jsonl"
        events.write_bytes(b'{"query":"q","impressions":["a"]}\n'
                           b'{"query":"\xff","impressions":["a"]}\n')
        out_path = tmp_path / "c.jsonl"
        code, out, err = run_cli(capsys, "aggregate-ctr", "--events",
                                 str(events), "--out", str(out_path),
                                 *["--strict"] * strict)
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err) == [f"error: cannot read {events}: "
                                    f"{not_utf8(line=2, offset=10)}"]
        assert not out_path.exists()

    def test_jsonl_not_utf8_past_first_chunk(self, capsys, tmp_path):
        """The position is counted in the file, not in the decoder's read
        chunk, however far into the file the bad byte is."""
        events = tmp_path / "clicklog.jsonl"
        events.write_bytes(b'{"query":"q","impressions":["a","b"]}\n' * 3000
                           + b'{"query":"q\xff","impressions":["a"]}\n')
        code, out, err = run_cli(capsys, "aggregate-ctr", "--events",
                                 str(events), "--out",
                                 str(tmp_path / "c.jsonl"))
        assert_one_error_line(code, err)
        assert error_lines(err) == [f"error: cannot read {events}: "
                                    f"{not_utf8(line=3001, offset=11)}"]

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("line", [1, 3])
    def test_tsv_not_utf8(self, capsys, tmp_path, strict, line):
        rows = [b"tconst\tprimaryTitle\tstartYear", b"tt1\tFine\t1999",
                b"tt2\tTitle\t2000"]
        rows[line - 1] = rows[line - 1].replace(b"t", b"\xff", 1)
        basics = tmp_path / "basics.tsv"
        basics.write_bytes(b"\n".join(rows) + b"\n")
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text("tconst\taverageRating\tnumVotes\n",
                           encoding="utf-8")
        out_path = tmp_path / "catalog.jsonl"
        code, out, err = run_cli(capsys, "ingest-catalog", "--basics",
                                 str(basics), "--ratings", str(ratings),
                                 "--out", str(out_path),
                                 *["--strict"] * strict)
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err) == [f"error: cannot read {basics}: "
                                    f"{not_utf8(line=line, offset=0)}"]
        assert not out_path.exists()

    def test_config_not_utf8(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "settings.conf"
        config.write_bytes(b"k = 3\n# \xff\n")
        code, out, err = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                                 "--run", str(run), "--config", str(config))
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err) == [f"error: cannot read {config}: "
                                    f"{not_utf8(line=2, offset=2)}"]

    def test_report_not_utf8(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        good = tmp_path / "good.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(good))
        bad = tmp_path / "bad.json"
        bad.write_bytes(good.read_bytes().replace(b'"k"', b'"\xff"', 1))
        code, out, err = run_cli(capsys, "compare", "--baseline", str(bad),
                                 "--candidate", str(good))
        assert_one_error_line(code, err)
        assert out == ""
        assert error_lines(err) == [f"error: cannot load report {bad}: "
                                    f"{not_utf8(line=1, offset=2)}"]


def with_bom(path):
    """Copy ``path`` beside itself with a UTF-8 byte-order mark in front."""
    marked = path.with_name("bom-" + path.name)
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return marked


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input is dropped; one
    anywhere else is read as the character it is."""

    def test_jsonl_inputs_and_config(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        config = tmp_path / "k.conf"
        config.write_text("k = 3\n", encoding="utf-8")
        outs = [run_cli(capsys, command, "--qrels", str(q), "--run", str(r),
                        "--config", str(c))
                for command in ("evaluate", "diagnose")
                for q, r, c in ((qrels, run, config),
                                (with_bom(qrels), with_bom(run),
                                 with_bom(config)))]
        assert [code for code, _, _ in outs] == [0] * 4
        assert outs[0] == outs[1] and outs[2] == outs[3]
        assert json.loads(outs[0][1])["k"] == 3

    def test_report(self, capsys, tmp_path):
        qrels, run = write_worked_fixture(tmp_path)
        report = tmp_path / "report.json"
        run_cli(capsys, "evaluate", "--qrels", str(qrels), "--run", str(run),
                "--out", str(report))
        outs = [run_cli(capsys, "compare", "--baseline", str(baseline),
                        "--candidate", str(report))
                for baseline in (report, with_bom(report))]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    def test_click_log(self, capsys, tmp_path):
        events = tmp_path / "clicklog.jsonl"
        events.write_text('{"query":"q","impressions":["a"],"clicked":"a"}\n',
                          encoding="utf-8")
        outs = [run_cli(capsys, "aggregate-ctr", "--events", str(path),
                        "--out", str(tmp_path / "ctr.jsonl"),
                        "--min-impressions", "1")
                for path in (events, with_bom(events))]
        assert [json.loads(out)["kept"] for _, out, _ in outs] == [1, 1]

    def test_catalog_dumps(self, capsys, tmp_path):
        basics = tmp_path / "basics.tsv"
        basics.write_text("tconst\tprimaryTitle\tstartYear\ntt1\tFine\t1999\n",
                          encoding="utf-8")
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text("tconst\taverageRating\tnumVotes\ntt1\t7.0\t10\n",
                           encoding="utf-8")
        written = []
        for b, r in ((basics, ratings), (with_bom(basics), with_bom(ratings))):
            out = tmp_path / f"catalog{len(written)}.jsonl"
            code, _, err = run_cli(capsys, "ingest-catalog", "--basics",
                                   str(b), "--ratings", str(r), "--out",
                                   str(out), "--strict")
            assert (code, err) == (0, "")
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert b'"rating":7.0' in written[0]

    @pytest.mark.parametrize("text,line", [
        ('{"query":"p","relevant":["A"]}\n\ufeff{"query":"q",'
         '"relevant":["A"]}\n', 2),
        ('\ufeff\ufeff{"query":"q","relevant":["A"]}\n', 1)])
    def test_mark_elsewhere_is_an_error(self, capsys, tmp_path, text, line):
        _, run = write_worked_fixture(tmp_path)
        qrels = tmp_path / "marked.jsonl"
        qrels.write_bytes(text.encode("utf-8"))
        code, out, err = run_cli(capsys, "evaluate", "--qrels", str(qrels),
                                 "--run", str(run))
        assert_one_error_line(code, err)
        assert error_lines(err)[0].startswith(
            f"error: {qrels}:{line}: invalid JSON: Unexpected UTF-8 BOM")
