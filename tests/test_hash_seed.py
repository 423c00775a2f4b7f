"""Same seed, same bytes, whatever the interpreter's hash seed.

Set and dict iteration over strings follows PYTHONHASHSEED, so an
unordered collection leaking into an output would differ between two
interpreters. Each child runs the whole pipeline under its own hash seed,
and every output file, stdout and stderr must match byte for byte.
"""

import json
import os
import subprocess
import sys

from peak import SRC

PIPELINE = [
    ["simulate", "--seed", "42", "--out-dir", "sim", "--n-titles", "30",
     "--n-queries", "20", "--n-replays", "40"],
    ["ingest-catalog", "--basics", "sim/basics.tsv", "--ratings",
     "sim/ratings.tsv", "--ranks", "sim/ranks.tsv", "--out", "catalog.jsonl"],
    ["score-importance", "--catalog", "catalog.jsonl", "--out",
     "scored.jsonl"],
    ["aggregate-ctr", "--events", "sim/clicklog.jsonl", "--out", "ctr.jsonl",
     "--min-impressions", "2"],
    ["build-relevance", "--ctr", "ctr.jsonl", "--scored", "scored.jsonl",
     "--out", "qrels.jsonl", "--min-importance", "0"],
    ["evaluate", "--qrels", "qrels.jsonl", "--run", "sim/run.jsonl",
     "--out", "built.json"],
    ["evaluate", "--qrels", "sim/truth_qrels.jsonl", "--run",
     "sim/run.jsonl", "--out", "truth.json", "--format", "table"],
    ["diagnose", "--qrels", "qrels.jsonl", "--run", "sim/run.jsonl",
     "--out", "diagnoses.jsonl"],
    ["compare", "--baseline", "built.json", "--candidate", "truth.json",
     "--out", "delta.json", "--format", "table"],
]

CHILD = """
import json
import sys
from er_evalkit.cli import dispatch
for argv in json.loads(sys.argv[1]):
    print("exit", dispatch(argv))
"""


def run_pipeline(cwd, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run([sys.executable, "-c", CHILD,
                           json.dumps(PIPELINE)],
                          cwd=cwd, capture_output=True, env=env, timeout=120)
    files = {path.relative_to(cwd).as_posix(): path.read_bytes()
             for path in sorted(cwd.rglob("*")) if path.is_file()}
    return done.returncode, done.stdout, done.stderr, files


def test_pipeline_bytes_do_not_follow_hash_seed(tmp_path):
    runs = []
    for hash_seed in (0, 1):
        cwd = tmp_path / str(hash_seed)
        cwd.mkdir()
        runs.append(run_pipeline(cwd, hash_seed))
    code, stdout, _, files = runs[0]
    assert code == 0
    assert stdout.count(b"exit 0\n") == len(PIPELINE), stdout
    assert len(files) == 15
    assert len(files["qrels.jsonl"].splitlines()) > 1
    assert runs[1] == runs[0]
