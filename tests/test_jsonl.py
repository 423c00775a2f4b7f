"""Tests for the JSONL helpers: every output is replaced atomically, and
decode reads exactly what json.loads reads, but for a lone surrogate."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from er_evalkit.cli import dispatch
from er_evalkit.errors import IngestError
from er_evalkit.jsonl import (as_records, atomic_open, decode, dumps,
                              middle_line, open_text, optional, read_lines,
                              require, write_jsonl)


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

    def test_require_checks_finiteness_only_where_a_float_is_allowed(self):
        with pytest.raises(ValueError) as raised:
            require({"x": float("nan")}, "x", (int, float))
        assert str(raised.value) == "x must be finite, got nan"
        assert require({"n": 10 ** 400}, "n", (int,)) == 10 ** 400

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

    @given(st.lists(st.text(alphabet="ab{}", min_size=1, max_size=5),
                    min_size=1, max_size=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_bad_byte_is_named_by_the_line_the_readers_number(
            self, tmp_path_factory, lines, data):
        """Under any mix of LF, CRLF and lone-CR line ends, the line and
        offset are those of the line read_lines numbers."""
        endings = [data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
                   for _ in lines]
        bad = data.draw(st.integers(0, len(lines) - 1))
        offset = data.draw(st.integers(0, len(lines[bad])))
        lines[bad] = lines[bad][:offset] + "\udcff" + lines[bad][offset:]
        path = tmp_path_factory.mktemp("ends") / "bad.jsonl"
        path.write_bytes("".join(map(str.__add__, lines, endings)).encode(
            "utf-8", "surrogateescape"))
        with pytest.raises(IngestError) as raised:
            list(read_lines(path))
        assert str(raised.value) == (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff on "
            f"line {bad + 1} at byte offset {offset}: invalid start byte")


class TestDecodeErrorLines:
    """A stage names a non-UTF-8 byte by the line its reader numbers, on a
    file whose lines end in a lone CR."""

    def cr_file(self, path, lines):
        path.write_bytes(b"".join(line + b"\r" for line in lines))
        return path

    def test_evaluate(self, capsys, tmp_path):
        qrels = self.cr_file(tmp_path / "qrels.jsonl",
                             [b'{"query":"q","relevant":["a"]}'])
        run = self.cr_file(tmp_path / "run.jsonl", [
            b'{"query":"q%d","results":[]}' % i for i in range(2)] + [
            b'{"query":"q\xff","results":[]}'])
        assert dispatch(["evaluate", "--qrels", str(qrels),
                         "--run", str(run)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {run}: 'utf-8' codec can't decode byte "
            "0xff on line 3 at byte offset 11: invalid start byte\n")

    def test_aggregate_ctr(self, capsys, tmp_path):
        events = self.cr_file(tmp_path / "events.jsonl", [
            b'{"query":"q","impressions":["a"]}'] * 2 + [
            b'{"query":"\xff","impressions":["a"]}'])
        assert dispatch(["aggregate-ctr", "--events", str(events),
                         "--out", str(tmp_path / "ctr.jsonl")]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {events}: 'utf-8' codec can't decode byte "
            "0xff on line 3 at byte offset 10: invalid start byte\n")


class TestTextRanges:
    """open_text reads a file cut at line starts as one read would, and
    middle_line finds the cut, or None where there is none to make."""

    def test_halves_read_the_lines_of_the_whole(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes("\ufeffa\r\nb\rc\n\nd\ne\n".encode())
        split = middle_line(path)
        assert path.read_bytes()[split - 1:split] == b"\n"
        lines = list(open_text(path))
        assert list(open_text(path, 0, split)) + list(
            open_text(path, split)) == lines
        assert lines[0] == "a\n"

    def test_only_the_range_at_byte_zero_drops_a_mark(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes("\ufeffa\n\ufeffb\n".encode())
        split = middle_line(path)
        assert (list(open_text(path, 0, split)), list(open_text(
            path, split))) == (["a\n"], ["\ufeffb\n"])

    @pytest.mark.parametrize("data", [b"", b"x", b"x\n",
                                      b"one line\r", b"1\r2\r3\n"])
    def test_no_line_starts_in_the_second_half(self, tmp_path, data):
        path = tmp_path / "log.jsonl"
        path.write_bytes(data)
        assert middle_line(path) is None

    def test_only_a_regular_file_is_cut(self, tmp_path):
        assert middle_line(tmp_path) is None
        assert middle_line(tmp_path / "absent") is None
        if hasattr(os, "mkfifo"):
            os.mkfifo(tmp_path / "fifo")
            assert middle_line(tmp_path / "fifo") is None

    def test_the_cut_is_the_first_line_start_past_half(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for data in (b"ab\ncd\n", b"abc\nd\n", b"a\nbcdef\ngh\n",
                     b"ab\ncd\nef\n"):
            path.write_bytes(data)
            half = len(data) // 2
            starts = [i + 1 for i, byte in enumerate(data[:-1])
                      if byte == ord("\n")]
            assert middle_line(path) == min(i for i in starts if i >= half)


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


class TestDumps:
    @given(json_values)
    @settings(deadline=None)
    def test_is_json_dumps_with_the_writers_arguments(self, value):
        assert dumps(value) == json.dumps(value, ensure_ascii=False,
                                          separators=(",", ":"))

    def test_a_failed_encode_leaves_no_container_marked(self):
        inner = {"a": object()}
        with pytest.raises(TypeError):
            dumps([inner])
        inner["a"] = 1
        assert dumps([inner]) == '[{"a":1}]'
        cycle = []
        cycle.append(cycle)
        with pytest.raises(ValueError, match="Circular reference detected"):
            dumps(cycle)


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
