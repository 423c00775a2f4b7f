"""One landing rule: every output a stage writes lands together, after its
stdout, or none does (jsonl.landing)."""

import ast
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from er_evalkit import metrics
from er_evalkit.cli import dispatch
from er_evalkit.errors import IngestError
from er_evalkit.jsonl import atomic_open, landing, write_jsonl

from peak import SRC

CLI = [sys.executable, "-m", "er_evalkit.cli"]
ENV = dict(os.environ, PYTHONPATH=str(SRC))
SIMULATE = ["simulate", "--n-titles", "20", "--n-queries", "5"]
SIM_FILES = ["basics.tsv", "clicklog.jsonl", "ranks.tsv", "ratings.tsv",
             "run.jsonl", "truth_qrels.jsonl"]


def snapshot(directory):
    """Each entry's bytes, or None for a directory; temp files included."""
    return {path.name: None if path.is_dir() else path.read_bytes()
            for path in directory.iterdir()}


def failing_records(n_good, exc):
    yield from ({"i": i} for i in range(n_good))
    raise exc


class TestLanding:
    def test_nested_writes_land_at_the_outer_exit_in_open_order(
            self, tmp_path, monkeypatch):
        renames = []
        real = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            renames.append(Path(dst).name), real(src, dst)))
        with landing():
            write_jsonl(tmp_path / "b.jsonl", [{"b": 1}])
            with landing():
                write_jsonl(tmp_path / "a.jsonl", [{"a": 1}])
            assert renames == []
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                f".{name}.{os.getpid()}.tmp" for name in ("a.jsonl", "b.jsonl")]
        assert renames == ["b.jsonl", "a.jsonl"]
        assert snapshot(tmp_path) == {"a.jsonl": b'{"a":1}\n',
                                      "b.jsonl": b'{"b":1}\n'}

    @pytest.mark.parametrize("exc", [RuntimeError("late"), KeyboardInterrupt()])
    def test_exception_lands_nothing(self, tmp_path, exc):
        (tmp_path / "a.jsonl").write_text("old a\n", encoding="utf-8")
        before = snapshot(tmp_path)
        with pytest.raises(type(exc)):
            with landing():
                write_jsonl(tmp_path / "a.jsonl", [{"a": 1}])
                write_jsonl(tmp_path / "b.jsonl", [{"b": 1}])
                raise exc
        assert snapshot(tmp_path) == before

    def test_a_failed_writer_never_lands_even_if_caught(self, tmp_path):
        (tmp_path / "a.jsonl").write_text("old a\n", encoding="utf-8")
        with landing():
            with pytest.raises(RuntimeError):
                write_jsonl(tmp_path / "a.jsonl",
                            failing_records(3, RuntimeError("halfway")))
            write_jsonl(tmp_path / "b.jsonl", [{"b": 1}])
        assert snapshot(tmp_path) == {"a.jsonl": b"old a\n",
                                      "b.jsonl": b'{"b":1}\n'}

    def test_failed_rename_names_its_target_and_removes_the_rest(
            self, tmp_path):
        with pytest.raises(IngestError, match=r"^cannot write .*a\.jsonl: "):
            with landing():
                with atomic_open(tmp_path / "a.jsonl") as fh:
                    fh.write("new a\n")
                write_jsonl(tmp_path / "b.jsonl", [{"b": 1}])
                # a.jsonl turns into a directory after its temp file opened.
                (tmp_path / "a.jsonl").mkdir()
        assert sorted(snapshot(tmp_path)) == ["a.jsonl"]


class TestStages:
    def test_mixed_seed_fixture_set_cannot_happen(self, capsys, tmp_path):
        """simulate into a seed-1 set whose run.jsonl is a directory: exit 1,
        and every old file keeps its seed-1 bytes."""
        out = tmp_path / "mix"
        assert dispatch([*SIMULATE, "--seed", "1", "--out-dir", str(out)]) == 0
        (out / "run.jsonl").unlink()
        (out / "run.jsonl").mkdir()
        before = snapshot(out)
        capsys.readouterr()
        code = dispatch([*SIMULATE, "--seed", "2", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            f"error: cannot write {out / 'run.jsonl'}: is a directory\n")
        assert snapshot(out) == before
        assert sorted(before) == SIM_FILES

    def test_interrupted_simulate_keeps_every_old_file(
            self, capsys, tmp_path, monkeypatch):
        """Ctrl-C while simulate writes run.jsonl, its fifth file."""
        out = tmp_path / "sim"
        assert dispatch([*SIMULATE, "--seed", "1", "--out-dir", str(out)]) == 0
        before = snapshot(out)
        capsys.readouterr()
        save_run = metrics.save_run

        def interrupted(run, path):
            def results():
                yield next(iter(run))
                raise KeyboardInterrupt
            return save_run(results(), path)

        monkeypatch.setattr(metrics, "save_run", interrupted)
        code = dispatch([*SIMULATE, "--seed", "2", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            1, "", "error: interrupted\n")
        assert snapshot(out) == before


def stage_argvs(d):
    """Each --out stage's argv on the inputs in ``d``, in pipeline order,
    its --out path last."""
    sim = d / "sim"
    return {
        "ingest-catalog": ["ingest-catalog", "--basics", sim / "basics.tsv",
                           "--ratings", sim / "ratings.tsv",
                           "--out", d / "catalog.jsonl"],
        "score-importance": ["score-importance", "--catalog",
                             d / "catalog.jsonl", "--out", d / "scored.jsonl"],
        "aggregate-ctr": ["aggregate-ctr", "--events", sim / "clicklog.jsonl",
                          "--out", d / "ctr.jsonl"],
        "build-relevance": ["build-relevance", "--ctr", d / "ctr.jsonl",
                            "--scored", d / "scored.jsonl",
                            "--out", d / "qrels.jsonl"],
        "evaluate": ["evaluate", "--qrels", d / "qrels.jsonl",
                     "--run", sim / "run.jsonl", "--out", d / "report.json"],
        "diagnose": ["diagnose", "--qrels", d / "qrels.jsonl",
                     "--run", sim / "run.jsonl", "--out", d / "diag.jsonl"],
        "compare": ["compare", "--baseline", d / "report.json",
                    "--candidate", d / "report.json", "--out", d / "delta.json"],
    }


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """A small simulated set and every stage's output from it."""
    d = tmp_path_factory.mktemp("stages")
    for argv in ([*SIMULATE, "--seed", "7", "--out-dir", d / "sim"],
                 *stage_argvs(d).values()):
        assert dispatch([str(arg) for arg in argv]) == 0
    return d


class TestTargets:
    """What an output path names, if not a regular file or nothing."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_fifo_out_is_refused_not_replaced(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text('{"query":"q","impressions":["A"]}\n',
                          encoding="utf-8")
        fifo = tmp_path / "ctr.jsonl"
        os.mkfifo(fifo)
        code = dispatch(["aggregate-ctr", "--events", str(events),
                         "--min-impressions", "1", "--out", str(fifo)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            1, "", f"error: cannot write {fifo}: not a regular file\n")
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ctr.jsonl", "events.jsonl"]

    @pytest.mark.parametrize("stage", [*stage_argvs(Path()), "--provenance"])
    def test_empty_path_is_one_error_line(self, capsys, tmp_path, monkeypatch,
                                          stage_inputs, stage):
        """The empty path is the directory ``.``: every stage says so, and
        leaves nothing in it."""
        if stage == "--provenance":
            argv = [*stage_argvs(stage_inputs)["build-relevance"][:-1],
                    "qrels.jsonl", "--provenance", ""]
        else:
            argv = [*stage_argvs(stage_inputs)[stage][:-1], ""]
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code = dispatch([str(arg) for arg in argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            1, "", "error: cannot write : is a directory\n")
        assert snapshot(tmp_path) == {}


class TestNewOutDir:
    """A simulate that fails leaves no --out-dir it made, nor its parents;
    a directory that was there before stays."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    def test_full_stdout(self, tmp_path):
        (tmp_path / "old").mkdir()
        with open("/dev/full", "w", encoding="utf-8") as full:
            done = subprocess.run(
                CLI + [*SIMULATE, "--seed", "7", "--out-dir", "new/dir"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=ENV,
                cwd=tmp_path, timeout=120)
        assert (done.returncode, done.stderr) == (
            1, "error: cannot write stdout: [Errno 28] No space left on device\n")
        assert snapshot(tmp_path) == {"old": None}

    def test_interrupted(self, capsys, tmp_path, monkeypatch):
        def interrupted(run, path):
            raise KeyboardInterrupt

        (tmp_path / "old").mkdir()
        monkeypatch.setattr(metrics, "save_run", interrupted)
        code = dispatch([*SIMULATE, "--seed", "7", "--out-dir",
                         str(tmp_path / "new" / "dir")])
        assert (code, capsys.readouterr().err) == (1, "error: interrupted\n")
        assert snapshot(tmp_path) == {"old": None}

    def test_out_dir_that_is_a_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept\n", encoding="utf-8")
        code = dispatch([*SIMULATE, "--seed", "7", "--out-dir", "afile"])
        assert (code, capsys.readouterr().err) == (
            1, "error: [Errno 17] File exists: 'afile'\n")
        assert snapshot(tmp_path) == {"afile": b"kept\n"}


@pytest.mark.skipif(sys.platform != "linux",
                    reason="needs a file system that takes any name bytes")
class TestNonUtf8Paths:
    """A path that is not UTF-8 is echoed in the summary as the JSON escape
    of its lone surrogate, which decodes back to the same path."""

    def run(self, *argv):
        return subprocess.run(CLI + list(argv), capture_output=True, env=ENV,
                              timeout=120)

    def test_aggregate_ctr_out(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text('{"query":"q","impressions":["A"]}\n',
                          encoding="utf-8")
        out = tmp_path / os.fsdecode(b"ctr\xff.jsonl")
        done = self.run("aggregate-ctr", "--events", str(events),
                        "--min-impressions", "1", "--out", str(out))
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.is_file()
        assert b'"out":' in done.stdout and b"\\udcff" in done.stdout
        assert json.loads(done.stdout)["out"] == os.fsdecode(out)

    def test_simulate_out_dir(self, tmp_path):
        out = tmp_path / os.fsdecode(b"o\xffd")
        done = self.run(*SIMULATE, "--seed", "1", "--out-dir", str(out))
        assert (done.returncode, done.stderr) == (0, b"")
        assert sorted(p.name for p in out.iterdir()) == SIM_FILES
        assert json.loads(done.stdout)["out_dir"] == os.fsdecode(out)


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    """A click log, qrels and a run whose CTR records and report each take
    over 1 MB."""
    d = tmp_path_factory.mktemp("large")
    (d / "events.jsonl").write_text("".join(json.dumps({
        "query": f"q{i}", "impressions": [f"e{i}x{j}" for j in range(10)],
        "clicked": f"e{i}x0"}) + "\n" for i in range(1600)),
        encoding="utf-8")
    (d / "qrels.jsonl").write_text("".join(json.dumps({
        "query": f"q{i}", "relevant": ["a"]}) + "\n" for i in range(6000)),
        encoding="utf-8")
    (d / "run.jsonl").write_text("".join(json.dumps({
        "query": f"q{i}", "results": [
            {"entity_id": "a", "score": 1, "bin": "high"}]}) + "\n"
        for i in range(6000)), encoding="utf-8")
    return d


@pytest.mark.skipif(sys.platform == "win32",
                    reason="needs resource limits in a child process")
class TestFileSizeCap:
    """A stage run with its file size capped (RLIMIT_FSIZE; Python ignores
    SIGXFSZ, so the write fails with EFBIG) exits 1 with one ``cannot
    write`` line and leaves its output directory as it found it: no
    target, no temp file, no out-dir it made."""

    @pytest.mark.parametrize("cap", [1, 4096, 1 << 20])
    @pytest.mark.parametrize("stage", ["aggregate-ctr", "simulate",
                                       "evaluate"])
    def test_a_capped_stage_lands_nothing(self, tmp_path, large_inputs,
                                          stage, cap):
        import resource

        d = large_inputs
        out = tmp_path / "out"
        argv = {
            "aggregate-ctr": ["aggregate-ctr", "--events",
                              d / "events.jsonl", "--min-impressions", "1",
                              "--min-ctr", "0", "--out", out],
            "simulate": ["simulate", "--n-titles", "50", "--n-queries",
                         "30", "--seed", "1", "--out-dir", out],
            "evaluate": ["evaluate", "--qrels", d / "qrels.jsonl", "--run",
                         d / "run.jsonl", "--out", out],
        }[stage]
        done = subprocess.run(
            CLI + [str(arg) for arg in argv], capture_output=True, env=ENV,
            timeout=120, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_FSIZE, (cap, cap)))
        targets = [out / name for name in SIM_FILES] if (
            stage == "simulate") else [out]
        assert done.returncode == 1
        assert done.stderr.decode() in {
            f"error: cannot write {target}: [Errno 27] File too large\n"
            for target in targets}
        assert snapshot(tmp_path) == {}


def test_one_rename_in_the_package():
    """os.replace is named once under src/er_evalkit/, in jsonl.landing, so
    no stage can land a file by a second rule."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in (SRC / "er_evalkit").glob("*.py")}
    renames = {name: text.count("os.replace") + text.count("os.rename")
               + text.count("from os import") for name, text in sources.items()}
    assert {name: n for name, n in renames.items() if n} == {"jsonl.py": 1}
    landing_def, = (node for node in ast.parse(sources["jsonl.py"]).body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "landing")
    assert "os.replace(" in ast.get_source_segment(sources["jsonl.py"],
                                                   landing_def)
