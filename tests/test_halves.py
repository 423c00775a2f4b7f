"""The contract of halves.parts, on a toy part that yields a file's
numbered lines: the two parts equal one pass, with the same warnings
in the same places and the same errors, whole-file line numbers
included, and no child process is left behind on any path, nor alive
after its parent is killed."""

import io
import marshal
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from peak import SRC

from er_evalkit import halves
from er_evalkit.errors import IngestError
from er_evalkit.jsonl import middle_line, read_lines


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def toy(path):
    """A part yielding (line, text) of each nonblank line: a line
    ``warn...`` yields the warning (None, text) first, and a line holding
    ``bad`` is an error naming it."""
    def part(start, end):
        for lineno, line in read_lines(path, start, end):
            if line.startswith("warn"):
                yield None, f"warned at {line!r}"
            if "bad" in line:
                raise IngestError(f"{path}:{lineno}: bad line {line!r}")
            yield lineno, line
    return part


def events(path, cpus=(0, 1), stop=None):
    """What reading ``path`` through parts shows, in order: ("text", line)
    per line, ("log", text) per warning and ("error", text) for an
    IngestError. The body raises its own error, naming the message's
    line, at the line ``stop``."""
    shown = []
    try:
        with mock.patch.object(os, "sched_getaffinity",
                               return_value=set(cpus), create=True), \
                halves.parts(toy(path), path, middle_line(path)) as messages:
            for lineno, line in messages:
                if line == stop:
                    raise IngestError(f"{path}:{lineno}: stopped")
                shown.append(("log" if lineno is None else "text", line))
    except IngestError as exc:
        shown.append(("error", str(exc)))
    assert no_child_left()
    return shown


ENDINGS = ["\n", "\r\n", "\r"]
LINES = st.one_of(
    st.just(""), st.sampled_from(["warn", "bad", "ok", "warnbad"]).map(
        lambda head: head + "xxx"), st.text("abc", min_size=1, max_size=30))


@st.composite
def files(draw):
    """Lines of text, blank, warning and bad lines, each ended by a
    newline, CRLF or a lone CR, perhaps behind a byte-order mark."""
    text = "".join(line + draw(st.sampled_from(ENDINGS))
                   for line in draw(st.lists(LINES, max_size=60)))
    return ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode()


def numbered(n, **lines):
    """``n`` lines ``line1``... with the line numbers given replaced."""
    return "".join(lines.get(f"at{i}", f"line{i}") + "\n"
                   for i in range(1, n + 1)).encode()


class TestParts:

    @given(files())
    @example(b"\xef\xbb\xbf" + b"\r\n" * 40
             + b"okxxx\r\nwarnxxx\r\nbadxxx\r\n")
    @example(b"okxxx\r" * 30 + b"\n" + b"warnxxx\n" * 30)
    @settings(max_examples=80, deadline=None)
    def test_the_parts_equal_one_pass(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("toy") / "lines.txt"
        path.write_bytes(data)
        assert events(path) == events(path, cpus=(0,))

    def test_the_child_makes_the_second_part(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(numbered(100))
        parent = os.getpid()

        def part(start, end):
            yield start, os.getpid()

        with mock.patch.object(os, "sched_getaffinity", return_value={0, 1},
                               create=True), \
                halves.parts(part, path, middle_line(path)) as messages:
            (first, here), (second, there) = messages
        assert (first, here) == (0, parent)
        assert second == middle_line(path) and there != parent
        assert no_child_left()

    @pytest.mark.parametrize("by", ["child", "body"])
    def test_a_second_part_error_names_its_line_in_the_whole_file(
            self, tmp_path, by):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"\n" * 30 + numbered(100, at80="badx"))
        stop = None if by == "child" else "line70"
        line, reason = (110, "bad line 'badx'") if by == "child" else (
            100, "stopped")
        assert events(path, stop=stop)[-1] == ("error",
                                                f"{path}:{line}: {reason}")
        assert events(path, stop=stop) == events(path, cpus=(0,), stop=stop)

    @pytest.mark.parametrize("name", ["lines.txt", "l[i]n+e(s)*.txt"])
    def test_a_second_part_bad_byte_names_its_line_in_the_whole_file(
            self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\n" * 30 + numbered(100).replace(
            b"line80", b"ok\xffx"))
        assert middle_line(path) < path.read_bytes().index(b"\xff")
        assert events(path)[-1] == ("error", (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff on "
            "line 110 at byte offset 2: invalid start byte"))
        assert events(path) == events(path, cpus=(0,))

    def test_a_first_part_error_keeps_its_line(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(numbered(100, at10="badx"))
        assert events(path)[-1] == ("error", f"{path}:10: bad line 'badx'")

    @pytest.mark.parametrize("call, error", [
        ("fork", BlockingIOError(11, "Resource temporarily unavailable")),
        ("pipe", OSError(24, "Too many open files"))])
    def test_a_failed_fork_or_pipe_reads_in_one_pass(self, tmp_path, call,
                                                     error):
        path = tmp_path / "lines.txt"
        path.write_bytes(numbered(100, at60="warn60", at90="badx"))
        with mock.patch.object(os, call, side_effect=error) as failed:
            assert events(path) == events(path, cpus=(0,))
        assert failed.called

    def test_a_child_that_dies_is_the_failure(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(numbered(100))
        parent = os.getpid()

        def part(start, end):
            if os.getpid() != parent:
                raise ValueError("not an IngestError")
            yield from toy(path)(start, end)

        with mock.patch.object(os, "sched_getaffinity", return_value={0, 1},
                               create=True):
            with pytest.raises(ChildProcessError) as failed:
                with halves.parts(part, path, middle_line(path)) as messages:
                    list(messages)
        assert str(failed.value) == (
            f"the process reading the second half of {path} ended early")
        assert no_child_left()

    def test_a_frame_holds_messages_per_frame_messages(self):
        """A child's messages cross in frames of MESSAGES_PER_FRAME, the
        last of them shorter and holding the end."""
        size = halves.MESSAGES_PER_FRAME

        def part(start, end):
            yield from range(start, 2 * size + 3)

        frames = [marshal.loads(frame) for frame in halves._frames(part, 1)]
        assert frames == [(list(range(1, size + 1)),),
                          (list(range(size + 1, 2 * size + 1)),),
                          ([2 * size + 1, 2 * size + 2], None)]

    def test_a_pipe_that_ends_inside_a_frame_is_the_failure(self):
        """The failure names the file's second half, or with no path the
        second half of the work."""
        frame = marshal.dumps(([1, 2], None))
        sent = len(frame).to_bytes(8, "little") + frame
        for path, half in [("lines.txt", "reading the second half of "
                                         "lines.txt"),
                           (None, "working on the second half")]:
            for cut in range(len(sent)):
                with pytest.raises(ChildProcessError) as failed:
                    list(halves._messages(io.BytesIO(sent[:cut]), path))
                assert str(failed.value) == f"the process {half} ended early"
            assert list(halves._messages(io.BytesIO(sent), path)) == [1, 2]

    @pytest.mark.parametrize("end", ["success", "error", "interrupt",
                                     "early stop"])
    def test_no_child_is_left(self, tmp_path, end):
        """The second part's 5,000 lines make more frames than a pipe
        holds, so a child left to send them would wait for a reader."""
        path = tmp_path / "lines.txt"
        path.write_bytes(numbered(10000))

        def read():
            with halves.parts(toy(path), path, middle_line(path)) as messages:
                for lineno, line in messages:
                    if line == "line9000" and end == "interrupt":
                        raise KeyboardInterrupt
                    if line == "line9000" and end == "error":
                        raise IngestError(f"{path}:{lineno}: stopped")
                    if line == "line10" and end == "early stop":
                        break

        with mock.patch.object(os, "sched_getaffinity", return_value={0, 1},
                               create=True):
            if end in ("error", "interrupt"):
                with pytest.raises(IngestError if end == "error"
                                   else KeyboardInterrupt):
                    read()
            else:
                read()
        assert no_child_left()


ORPHANED = """
import os, sys, time
from er_evalkit import halves

os.sched_getaffinity = lambda pid: {0, 1}
parent, pid_file = os.getpid(), sys.argv[1]


def part(start, end):
    if start:
        with open(pid_file + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.rename(pid_file + ".tmp", pid_file)
        # At work until the parent is gone, for 60 s at most.
        deadline = time.monotonic() + 60
        while os.getppid() == parent and time.monotonic() < deadline:
            time.sleep(0.01)
    yield start


with halves.parts(part, None, 1) as messages:
    list(messages)
"""


def process_state(pid):
    """The state letter of ``pid`` in /proc/PID/stat, or None once the
    process is reaped and gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat[stat.rindex(")") + 2]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="process states are read from /proc/PID/stat")
def test_a_killed_parent_leaves_its_child_to_end_on_the_closed_pipe(
        tmp_path):
    """SIGKILL the parent while its child works on the second part: the
    child finishes, finds the pipe's read end closed and exits."""
    pid_file = tmp_path / "child.pid"
    parent = subprocess.Popen(
        [sys.executable, "-c", ORPHANED, str(pid_file)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        child = int(pid_file.read_text())
        assert process_state(child) in set("RS")
    finally:
        parent.kill()
        parent.wait(timeout=30)
    deadline = time.monotonic() + 10
    while process_state(child) not in (None, "Z", "X") \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    state = process_state(child)
    if state not in (None, "Z", "X"):
        os.kill(child, signal.SIGKILL)
    assert state in (None, "Z", "X")
