"""evaluate's and diagnose's two-halves read of a run file against the
one-pass read: the same rows, counts, diagnoses, warnings and errors, and
no child process left behind on any path."""

import logging
import os
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from er_evalkit import halves as halves_mod, metrics
from er_evalkit.cli import dispatch
from er_evalkit.diagnose import diagnose_run
from er_evalkit.errors import IngestError
from er_evalkit.jsonl import dumps, middle_line
from er_evalkit.metrics import evaluate_run

QUERIES = [f"q{i}" for i in range(40)]
# q30-q39 are run queries the qrels lack; q25-q29 are never answered
# unless a run line happens to name them.
QRELS = {query: {"abcdef"[i % 6], "abcdef"[i * 5 % 7 % 6]}
         for i, query in enumerate(QUERIES[:30])}
BIN_VALUES = ["high", "medium", "low"] * 6 + ["top"]


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def one_pass(read, *args):
    """``read(*args)`` with the run file read in one pass, never forking."""
    with mock.patch.object(halves_mod, "_fork",
                           side_effect=AssertionError("forked")), \
            mock.patch.object(os, "sched_getaffinity", return_value={0},
                              create=True):
        return read(*args)


def halves(read, *args):
    """``read(*args)`` with the run file's halves read at once."""
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1},
                           create=True):
        return read(*args)


def outcome(read, *args):
    """(result, warning lines, error text) of ``read(*args)``; result and
    error are None where there is none."""
    warnings = []
    handler = logging.Handler()
    handler.emit = lambda record: warnings.append(record.getMessage())
    log = logging.getLogger("er_evalkit.metrics")
    log.addHandler(handler)
    try:
        return read(*args), warnings, None
    except IngestError as exc:
        return None, warnings, str(exc)
    finally:
        log.removeHandler(handler)


def write_qrels(path):
    path.write_text("".join(dumps({"query": query, "relevant": sorted(ids)})
                            + "\n" for query, ids in QRELS.items()),
                    encoding="utf-8")


def evaluated(path, k=3):
    return evaluate_run(QRELS, path, k).to_dict()


def diagnosed(path):
    diagnoses, summary = diagnose_run(QRELS, path, k=2)
    return diagnoses, summary.to_dict()


@st.composite
def records(draw):
    """A run record, perhaps rising down its list, and now and then with a
    repeated entity id or a bin that is not one."""
    ids = draw(st.lists(st.sampled_from("abcdefg"), unique=True,
                        max_size=5))
    if ids and draw(st.integers(0, 15)) == 0:
        ids.append(ids[0])
    return {"query": draw(st.sampled_from(QUERIES)), "results": [
        {"entity_id": entity_id,
         "score": draw(st.sampled_from([1, 0.9, 0.5, 0.25, 0])),
         "bin": draw(st.sampled_from(BIN_VALUES))} for entity_id in ids]}


BAD_LINES = ['{"query":"q1","results":[', "[1, 2]", '{"query":7,"results":[]}',
             '{"query":"q2"}']
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def run_bytes(draw):
    """A run file of distinct queries into which a few blank lines, bad
    lines and records that may repeat a query are put, each line ended by
    a newline, CRLF or lone CR, perhaps behind a byte-order mark."""
    lines = [dumps(rec) for rec in draw(st.lists(
        records(), max_size=24, unique_by=lambda rec: rec["query"]))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(
            st.just(""), st.sampled_from(BAD_LINES), records().map(dumps))))
    text = "".join(line + draw(st.sampled_from(ENDINGS)) for line in lines)
    return ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode()


def good_lines(n):
    return [dumps({"query": f"q{i}", "results": [
        {"entity_id": "abcdef"[j], "score": [0.9, 0.5, 0.7][j],
         "bin": "high"} for j in range(3)]}) for i in range(n)]


# A repeat across the halves whose line is also bad in another way, and a
# blank run at the cut before a bad second-half line.
REPEAT_AND_BAD = ("\n".join(good_lines(20) + [
    dumps({"query": "q3", "results": [{"entity_id": "a", "score": 1,
                                       "bin": "top"}]})]) + "\n").encode()
BLANK_CUT = ("\n".join(good_lines(10) + [""] * 200 + good_lines(20)[10:]
                       + BAD_LINES[:1]) + "\n").encode()


class TestTwoHalves:
    """The two-halves read against the one-pass read."""

    @given(run_bytes())
    @example(REPEAT_AND_BAD)
    @example(BLANK_CUT)
    @example(BLANK_CUT.replace(b"\n", b"\r\n"))
    @settings(max_examples=60, deadline=None)
    def test_equals_one_pass(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("run") / "run.jsonl"
        path.write_bytes(data)
        for read in (evaluated, diagnosed):
            assert outcome(halves, read, path) == outcome(one_pass, read,
                                                          path)
        assert no_child_left()

    def test_the_examples_put_their_lines_where_named(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(REPEAT_AND_BAD)
        assert REPEAT_AND_BAD.index(b'"q3"') < middle_line(path) \
            < REPEAT_AND_BAD.rindex(b'"q3"')
        assert outcome(halves, evaluated, path)[2] == (
            f"{path}:21: bad run record: duplicate query 'q3'")
        path.write_bytes(BLANK_CUT)
        split = middle_line(path)
        assert BLANK_CUT[split - 2:split + 2] == b"\n\n\n\n"
        assert outcome(halves, evaluated, path)[2].startswith(
            f"{path}:221: invalid JSON")

    @pytest.mark.parametrize("where", ["first", "second"])
    def test_a_bad_byte_in_either_half_is_one_whole_file_error(
            self, tmp_path, where):
        lines = good_lines(40)
        lines[3 if where == "first" else 30] = '{"query":"\udcff"}'
        data = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
        path = tmp_path / "run.jsonl"
        path.write_bytes(data)
        assert (data.index(b"\xff") < middle_line(path)) == (where == "first")
        line = 4 if where == "first" else 31
        expected = (f"cannot read {path}: 'utf-8' codec can't decode byte "
                    f"0xff on line {line} at byte offset 10: invalid start "
                    "byte")
        for read in (one_pass, halves):
            with pytest.raises(IngestError) as error:
                read(evaluated, path)
            assert str(error.value) == expected
        assert no_child_left()

    @given(run_bytes(), st.integers(0), st.sampled_from(
        [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]))
    @example(REPEAT_AND_BAD, len(REPEAT_AND_BAD) - 1, b"\xff")
    @settings(max_examples=40, deadline=None)
    def test_a_bad_byte_anywhere_equals_one_pass(self, tmp_path_factory,
                                                 data, at, bad):
        """A non-UTF-8 byte put anywhere: the same warnings, then the same
        rows or error."""
        at %= len(data) + 1
        path = tmp_path_factory.mktemp("run") / "run.jsonl"
        path.write_bytes(data[:at] + bad + data[at:])
        for read in (evaluated, diagnosed):
            assert outcome(halves, read, path) == outcome(one_pass, read,
                                                          path)
        assert no_child_left()

    @pytest.mark.parametrize("read", [evaluated, diagnosed])
    @pytest.mark.parametrize("bad_line", [31, 200])
    def test_every_warning_before_a_bad_byte_prints(self, tmp_path, read,
                                                    bad_line):
        """Lines that share the reader's 8 KB block with a bad byte after
        them are each read and warned about first, on either route."""
        lines = good_lines(220)
        lines[bad_line - 1] = lines[bad_line - 1].replace(
            ':"q', ':"\udcffq', 1)
        data = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
        path = tmp_path / "run.jsonl"
        path.write_bytes(data)
        assert len(data) > 4 * 8192
        expected = (None, [
            f"query 'q{i}': score increases down the ranking (0.5 < 0.7)"
            for i in range(bad_line - 1)],
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff on "
            f"line {bad_line} at byte offset 10: invalid start byte")
        assert outcome(one_pass, read, path) == expected
        assert outcome(halves, read, path) == expected
        assert no_child_left()

    @pytest.mark.parametrize("side", ["parent", "child"])
    def test_an_interrupt_kills_and_reaps_the_child(self, tmp_path, side):
        """Ctrl-C (or SIGTERM, which the CLI turns into KeyboardInterrupt)
        in the parent kills the child; in the child, it ends the child and
        the parent raises."""
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(good_lines(30)) + "\n", encoding="utf-8")
        parent = os.getpid()
        scan = metrics.scan_query

        def interrupted(*args):
            if (os.getpid() == parent) == (side == "parent"):
                raise KeyboardInterrupt
            return scan(*args)

        with mock.patch.object(metrics, "scan_query", interrupted):
            with pytest.raises(KeyboardInterrupt if side == "parent"
                               else ChildProcessError):
                halves(evaluated, path)
        assert no_child_left()

    def test_an_interrupt_while_merging_kills_and_reaps_the_child(
            self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(good_lines(30)) + "\n", encoding="utf-8")
        messages = halves_mod._messages

        def interrupted(*args):
            yield next(messages(*args))
            raise KeyboardInterrupt

        with mock.patch.object(halves_mod, "_messages", interrupted):
            with pytest.raises(KeyboardInterrupt):
                halves(diagnosed, path)
        assert no_child_left()

    def test_an_interrupt_in_visit_kills_and_reaps_the_child(self, tmp_path):
        """An exception in the caller's visit, outside the row source, ends
        the child as it propagates, while its traceback, which holds the
        row source's frame, is still alive."""
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(good_lines(30)) + "\n", encoding="utf-8")
        with mock.patch.object(metrics, "_fractions",
                               side_effect=KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt) as raised:
                halves(evaluated, path)
        assert raised.traceback and no_child_left()

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_a_child_that_dies_is_one_error_line(self, capsys, tmp_path,
                                                 command):
        run, qrels, out = (tmp_path / name for name in (
            "run.jsonl", "qrels.jsonl", "out"))
        run.write_text("\n".join(good_lines(30)) + "\n", encoding="utf-8")
        write_qrels(qrels)
        parent = os.getpid()
        run_lines = metrics._run_lines

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return run_lines(*args, **kwargs)

        with mock.patch.object(metrics, "_run_lines", dying):
            code = halves(dispatch, [command, "--qrels", str(qrels),
                                     "--run", str(run), "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", (
            f"error: the process reading the second half of {run} ended "
            "early\n"))
        assert not out.exists()
        assert no_child_left()

    def test_a_failed_fork_reads_in_one_pass(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(good_lines(30)) + "\n", encoding="utf-8")
        with mock.patch.object(os, "fork", side_effect=BlockingIOError(
                11, "Resource temporarily unavailable")):
            assert outcome(halves, evaluated, path) == outcome(
                one_pass, evaluated, path)

    def test_a_failed_pipe_reads_in_one_pass(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(good_lines(30)) + "\n", encoding="utf-8")
        with mock.patch.object(os, "pipe", side_effect=OSError(
                24, "Too many open files")):
            assert outcome(halves, evaluated, path) == outcome(
                one_pass, evaluated, path)


class TestOnePassPaths:
    """One CPU, no os.fork and a FIFO input each read the run in one pass
    and write the bytes the two-halves read writes."""

    @pytest.fixture
    def inputs(self, tmp_path):
        run, qrels = tmp_path / "run.jsonl", tmp_path / "qrels.jsonl"
        run.write_text("\n".join(good_lines(30)) + "\n", encoding="utf-8")
        write_qrels(qrels)
        return run, qrels

    def cli_bytes(self, capsys, tmp_path, command, run, qrels):
        out = tmp_path / "out"
        code = dispatch([command, "--qrels", str(qrels), "--run", str(run),
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        return out.read_bytes(), captured.out

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_one_cpu_no_fork_and_a_fifo(self, capsys, tmp_path, inputs,
                                        monkeypatch, command):
        run, qrels = inputs
        expected = halves(self.cli_bytes, capsys, tmp_path, command, run,
                          qrels)
        assert no_child_left()
        monkeypatch.setattr(halves_mod, "_fork", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert self.cli_bytes(capsys, tmp_path, command, run,
                              qrels) == expected
        monkeypatch.undo()
        monkeypatch.setattr(halves_mod, "_fork", None)
        monkeypatch.delattr(os, "fork")
        assert self.cli_bytes(capsys, tmp_path, command, run,
                              qrels) == expected
        monkeypatch.undo()
        monkeypatch.setattr(halves_mod, "_fork", None)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=(run.read_bytes(),))
        writer.start()
        try:
            assert halves(self.cli_bytes, capsys, tmp_path, command, fifo,
                          qrels) == expected
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
