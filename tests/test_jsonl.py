"""Tests for the JSONL writers: every output is replaced atomically."""

import pytest

from er_evalkit.errors import IngestError
from er_evalkit.jsonl import atomic_open, write_jsonl


def failing_records(n_good):
    for i in range(n_good):
        yield {"i": i}
    raise RuntimeError("generator failed halfway")


class TestAtomicWrites:
    def test_failed_write_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(path, [{"old": True}])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="halfway"):
            write_jsonl(path, failing_records(1000))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_failed_first_write_creates_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_jsonl(tmp_path / "out.jsonl", failing_records(3))
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_contents(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("stale\n" * 100, encoding="utf-8")
        assert write_jsonl(path, [{"a": 1}, {"b": 2}]) == 2
        assert path.read_text(encoding="utf-8") == '{"a":1}\n{"b":2}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_unwritable_directory_is_ingest_error(self, tmp_path):
        with pytest.raises(IngestError, match="cannot write"):
            write_jsonl(tmp_path / "missing" / "out.jsonl", [{"a": 1}])

    def test_atomic_open_keeps_target_on_error(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{}\n", encoding="utf-8")
        with pytest.raises(ValueError):
            with atomic_open(path) as fh:
                fh.write('{"partial"')
                raise ValueError("interrupted")
        assert path.read_text(encoding="utf-8") == "{}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
