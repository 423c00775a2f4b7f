"""Tests for the JSONL helpers: every output is replaced atomically, and
decode reads exactly what json.loads reads."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from er_evalkit.errors import IngestError
from er_evalkit.jsonl import atomic_open, decode, write_jsonl


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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=5), children,
                                        max_size=4)),
    max_leaves=12,
)
# Serialized as the writers do, as json.dumps does by default, or indented.
serializations = st.sampled_from([
    {"ensure_ascii": False, "separators": (",", ":")},
    {},
    {"indent": 1},
])
json_whitespace = st.text(alphabet=" \t\n\r", max_size=3)
JUNK = [
    "", " ", "\n", "not json", "nan", "True", "{'a': 1}", '{"a":1,}', "[1,]",
    '{"a":1} trailing', "[1] [2]", "1 2", '{"a":1}\x0b', '"\\ud800"',
    "\ufeff{}", "\ufeff\ufeff[]", " \ufeff1", "\ufeff",
    "NaN", "Infinity", "-Infinity", "[NaN, Infinity, -Infinity]",
    "1" * 5001, "-" + "9" * 5001, '{"n": ' + "1" * 5001 + "}",
    "[" * 100_000 + "]" * 100_000,
    '{"a":' * 100_000 + "1" + "}" * 100_000,
]


def assert_decodes_like_loads(text):
    """decode(text) is json.loads(text), or fails with its text."""
    try:
        expected = json.loads(text)
    except (ValueError, RecursionError) as exc:
        with pytest.raises(ValueError) as excinfo:
            decode(text)
        assert str(excinfo.value) == f"invalid JSON: {exc}"
    else:
        # repr tells NaN, -0.0, 1 and 1.0, True and 1 apart.
        assert repr(decode(text)) == repr(expected)


class TestDecode:
    @given(json_values, serializations, json_whitespace, json_whitespace)
    @settings(max_examples=300, deadline=None)
    def test_values_with_surrounding_whitespace(self, value, how, before,
                                                after):
        assert_decodes_like_loads(before + json.dumps(value, **how) + after)

    @pytest.mark.parametrize("text", JUNK, ids=range(len(JUNK)))
    def test_junk(self, text):
        assert_decodes_like_loads(text)

    @given(json_values, st.sampled_from(JUNK[:20]) | st.text(max_size=4),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_values_with_junk_around(self, value, junk, junk_first):
        text = json.dumps(value)
        assert_decodes_like_loads(junk + text if junk_first else text + junk)

    @given(st.text(max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, text):
        assert_decodes_like_loads(text)
