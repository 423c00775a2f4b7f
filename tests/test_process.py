"""The CLI as a process: the same bytes under every installed interpreter,
UTF-8 stdout whatever the locale, and one error line when a stage is
interrupted.
"""

import json
import os
import select
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from peak import SRC
from test_hash_seed import CHILD, PIPELINE

CLI = [sys.executable, "-m", "er_evalkit.cli"]
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# A seed-42 fixture whose macro aggregates differ in their last digits when
# floats are summed with compensation (Python 3.12 and later), and a weight
# triple whose rejected sum does too.
PORTABLE = [
    ["simulate", "--seed", "42", "--out-dir", "sim", "--n-titles", "300",
     "--n-queries", "200"],
    *PIPELINE[1:],
    ["score-importance", "--catalog", "catalog.jsonl", "--out", "w.jsonl",
     "--weights", "0.1,0.2,0.3"],
]


def other_interpreters():
    """Each CPython 3.10-3.13 found on PATH or beside this one's pyenv
    prefix that runs and is not this interpreter's version."""
    versions = Path(sys.base_prefix).parent
    found = {}
    for minor in range(10, 14):
        name = f"python3.{minor}"
        candidates = [shutil.which(name),
                      *map(str, versions.glob(f"3.{minor}.*/bin/{name}"))]
        for path in filter(None, candidates):
            probe = subprocess.run(
                [path, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=30)
            if probe.returncode == 0 and f", {minor})" in probe.stdout:
                found.setdefault(minor, path)
                break
    found.pop(sys.version_info.minor, None)
    return sorted(found.values())


def run_portable(python, cwd):
    cwd.mkdir()
    done = subprocess.run([python, "-c", CHILD, json.dumps(PORTABLE)],
                          cwd=cwd, capture_output=True, env=ENV, timeout=120)
    files = {path.relative_to(cwd).as_posix(): path.read_bytes()
             for path in sorted(cwd.rglob("*")) if path.is_file()}
    return done.returncode, done.stdout, done.stderr, files


def test_same_bytes_under_every_interpreter(tmp_path):
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython 3.10-3.13 is installed")
    want = run_portable(sys.executable, tmp_path / "self")
    code, stdout, stderr, _ = want
    assert code == 0
    assert stdout.count(b"exit 0\n") == len(PORTABLE) - 1, stdout
    assert stderr.endswith(
        b"error: weights must sum to 1, got 0.6000000000000001\n")
    for i, python in enumerate(pythons):
        assert run_portable(python, tmp_path / str(i)) == want, python


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    qrels, run, out = (tmp_path / name
                       for name in ("qrels.jsonl", "run.jsonl", "r.json"))
    qrels.write_text('{"query":"café 日本","relevant":["A"]}\n',
                     encoding="utf-8")
    run.write_text('{"query":"café 日本","results":'
                   '[{"entity_id":"A","score":1.0,"bin":"high"}]}\n',
                   encoding="utf-8")
    done = subprocess.run(
        CLI + ["evaluate", "--qrels", str(qrels), "--run", str(run),
               "--out", str(out)],
        capture_output=True, env=dict(ENV, PYTHONIOENCODING="ascii"),
        timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out.read_bytes()
    assert "café 日本".encode() in done.stdout


def interrupt(tmp_path, argv, out, signum):
    """Run the CLI with ``argv``, send ``signum`` while it writes ``out``,
    and return its exit status and stderr.

    The stage's temp file is made a FIFO before the stage opens it, so the
    stage blocks in the middle of its write until this test reads the
    FIFO. The signal is sent once the first bytes arrive, then the FIFO is
    drained so that the stage can unwind.
    """
    out.write_text("older\n", encoding="utf-8")
    proc = subprocess.Popen(
        CLI + argv, cwd=tmp_path, env=ENV, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        # A runner may start tests with SIGINT ignored; the child must not
        # inherit that.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    tmp = out.with_name(f".{out.name}.{proc.pid}.tmp")
    os.mkfifo(tmp)
    fifo = os.open(tmp, os.O_RDONLY | os.O_NONBLOCK)
    try:
        writing = select.select([fifo], [], [], 60)[0]
        if writing:
            proc.send_signal(signum)
            os.set_blocking(fifo, True)
            while os.read(fifo, 1 << 16):
                pass
    finally:
        os.close(fifo)
    if not writing:
        proc.kill()
    _, stderr = proc.communicate(timeout=60)
    assert writing, f"the stage never wrote: {stderr!r}"
    return proc.returncode, stderr, tmp


@pytest.fixture
def ctr_argv(tmp_path):
    """aggregate-ctr keeping 20,000 pairs, about 1.3 MB of output."""
    events = tmp_path / "events.jsonl"
    ids = [f"e{j}" for j in range(500)]
    events.write_text("".join(
        json.dumps({"query": f"q{i}", "impressions": ids}) + "\n"
        for i in range(40)), encoding="utf-8")
    return ["aggregate-ctr", "--events", str(events), "--min-impressions",
            "1", "--min-ctr", "0", "--out", str(tmp_path / "out.jsonl")]


@pytest.fixture
def evaluate_argv(tmp_path):
    """evaluate --out of a 4,000-query report, about 1 MB."""
    qrels, run = tmp_path / "qrels.jsonl", tmp_path / "run.jsonl"
    queries = [f"q{i:04d}" for i in range(4000)]
    qrels.write_text("".join(
        json.dumps({"query": q, "relevant": ["A"]}) + "\n" for q in queries),
        encoding="utf-8")
    run.write_text("".join(
        json.dumps({"query": q, "results": [
            {"entity_id": "A", "score": 1.0, "bin": "high"}]}) + "\n"
        for q in queries), encoding="utf-8")
    return ["evaluate", "--qrels", str(qrels), "--run", str(run),
            "--out", str(tmp_path / "out.jsonl")]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
@pytest.mark.parametrize("stage", ["ctr_argv", "evaluate_argv"])
def test_interrupted_stage_says_one_line_and_leaves_nothing(
        request, tmp_path, stage, signum):
    out = tmp_path / "out.jsonl"
    code, stderr, tmp = interrupt(tmp_path, request.getfixturevalue(stage),
                                  out, signum)
    assert (code, stderr) == (1, b"error: interrupted\n")
    assert not tmp.exists()
    assert out.read_text(encoding="utf-8") == "older\n"
