"""Tests for the JSONL helpers: every output is replaced atomically, and
decode reads exactly what json.loads reads, but for a lone surrogate."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from er_evalkit.errors import IngestError
from er_evalkit.jsonl import (as_records, atomic_open, decode, optional,
                              read_lines, require, write_jsonl)


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


class TestRecordTables:
    TABLE = (("query", require, (str,)), ("n", require, (int,)),
             ("bin", optional, (str,)))

    def test_as_records_zips_each_row_with_the_table_keys(self):
        records = as_records(self.TABLE, iter([("q", 1, None), ("r", 2, "x")]))
        assert next(records) == {"query": "q", "n": 1, "bin": None}
        assert [*records] == [{"query": "r", "n": 2, "bin": "x"}]

    def test_require_names_a_value_outside_its_kinds(self):
        """A bool is no int: the check is on the exact type."""
        with pytest.raises(TypeError) as raised:
            require({"n": True}, "n", (int,))
        assert str(raised.value) == "n must be int, got True"

    def test_optional_reads_a_present_value_and_none_for_absent_or_null(self):
        assert optional({"bin": "high"}, "bin", (str,)) == "high"
        assert optional({"bin": None}, "bin", (str,)) is None
        assert optional({}, "bin", (str,)) is None
        with pytest.raises(TypeError, match="bin must be str, got 1"):
            optional({"bin": 1}, "bin", (str,))


class TestReadLines:
    def test_a_missing_file_is_an_ingest_error_naming_it(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        with pytest.raises(IngestError) as raised:
            list(read_lines(path))
        assert str(raised.value).startswith(f"cannot read {path}: ")

    def test_a_bad_byte_is_named_by_its_file_line_and_offset(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"{}\n\n[\xff]\n")
        with pytest.raises(IngestError) as raised:
            list(read_lines(path))
        assert str(raised.value) == (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff on "
            "line 3 at byte offset 1: invalid start byte")


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


# The one text json.loads reads and decode refuses: UTF-8 cannot encode it.
REJECTED = {'"\\ud800"': "invalid JSON: lone surrogate '\\ud800'"}


def assert_decodes_like_loads(text):
    """decode(text) is json.loads(text), or fails with its text, or with
    the text REJECTED gives."""
    if text in REJECTED:
        with pytest.raises(ValueError) as excinfo:
            decode(text)
        assert str(excinfo.value) == REJECTED[text]
        return
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
