"""A stage's work in two parts at once, the second in a forked child.

Where each line of a regular file, or each query of a list, is worked on
apart from the others, the file cut at a line start
(:func:`jsonl.middle_line`), or the list in the middle, is two independent
parts whose results join in order: a map, then an ordered merge.
:func:`parts` is the one call that runs a stage's work that way, and the
one place a process is forked. A stage gives it one ``part(start, end)``
that yields the messages of bytes (or queries) ``start`` to ``end``, so
one pass and each part run the same function, and folds the messages:
aggregate-ctr merges count tables, evaluate and diagnose visit a run
file's scans, and simulate's matcher collects its top lists. Messages
are the one channel from a child, which sends nothing it logs: a warning
a part finds travels in a message for the fold to log. The reader numbers
a part's lines in the whole file, so nothing here reads or rewrites the
text of an error.
"""

from __future__ import annotations

import marshal
import os
import signal
from contextlib import closing, contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Generator, Iterator

from .errors import IngestError

# Messages per frame: a child's messages cross the pipe a slice at a time,
# marshalled as they are made, so it never holds them as objects.
MESSAGES_PER_FRAME = 64

Part = Callable[[int, int | None], Generator[Any, None, None]]


def _two_cpus() -> bool:
    """Whether a forked child can work on a CPU of its own."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


def _frames(part: Part, cut: int) -> Iterator[bytes]:
    """In a forked child: ``part(cut, None)``'s messages as marshalled
    frames ``(messages,)`` of ``MESSAGES_PER_FRAME`` messages, the last
    ``(messages, error)`` with at most that many and the text of the
    IngestError that stopped the part, or None."""
    messages, error = [], None
    try:
        for message in part(cut, None):
            if len(messages) == MESSAGES_PER_FRAME:
                yield marshal.dumps((messages,))
                messages = []
            messages.append(message)
    except IngestError as exc:
        error = str(exc)
    yield marshal.dumps((messages, error))


def _fork(part: Part, cut: int) -> tuple[int, int] | None:
    """(pid, pipe read end) of a forked child that sends every frame of
    :func:`_frames`, length-prefixed, once its part has ended, so a pipe
    not yet read never stalls the part; None if no pipe or no child can be
    made. The child ends only through ``os._exit``, so nothing of the
    parent's (a landing, a test runner) unwinds there; an exception ends
    it before its last frame."""
    try:
        readable, writable = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(readable)
        os.close(writable)
        return None
    if pid:
        os.close(writable)
        return pid, readable
    code = 1
    try:
        os.close(readable)
        frames = list(_frames(part, cut))
        with os.fdopen(writable, "wb") as pipe:
            for frame in frames:
                pipe.write(len(frame).to_bytes(8, "little") + frame)
        code = 0
    finally:
        os._exit(code)


def _messages(pipe: IO[bytes], path: str | Path | None) -> Iterator[Any]:
    """Each message the child sent, then the child's error raised, if any.
    A pipe that ends before the last frame is a ChildProcessError naming
    ``path``'s second half."""
    while True:
        head = pipe.read(8)
        size = int.from_bytes(head, "little")
        blob = pipe.read(size) if len(head) == 8 else b""
        if len(head) < 8 or len(blob) < size:
            raise ChildProcessError("the process " + (
                "working on the second half" if path is None
                else f"reading the second half of {path}") + " ended early")
        messages, *end = marshal.loads(blob)
        yield from messages
        if end:
            if end[0] is not None:
                raise IngestError(end[0])
            return


@contextmanager
def parts(part: Part, path: str | Path | None,
          cut: int | None) -> Iterator[Iterator[Any]]:
    """The messages of ``path``'s work, in two parts at once where it can.

    Given ``cut``, a line start of ``path`` (or of a part when ``path``
    is None, for work naming no file line), two CPUs, a pipe and a child,
    the body's iterator yields ``part(0, cut)``'s messages, made here as
    they are read, then ``part(cut, None)``'s, made in a forked child and
    so values ``marshal`` takes, and raises the child's IngestError after
    the child's messages. Otherwise (no cut, one CPU, no ``os.fork``, or no
    pipe or child) it yields ``part(0, None)``'s.

    A part names a line of ``path`` by its number in the whole file, as
    the reader gives it (:func:`jsonl.open_text`), so an error from either
    part, or from the body while it reads the child's messages, passes
    through as it was raised. A child that ends without all its messages,
    as by any other exception, is the ChildProcessError ``the process
    reading the second half of PATH ended early`` (``working on the second
    half`` with no path). When the body ends, by any path, the child is
    killed and reaped.
    """
    child = _fork(part, cut) if cut is not None and _two_cpus() else None
    if child is None:
        with closing(part(0, None)) as messages:
            yield messages
        return
    pid, readable = child

    def stream() -> Iterator[Any]:
        yield from part(0, cut)
        yield from _messages(pipe, path)

    try:
        with os.fdopen(readable, "rb") as pipe, closing(stream()) as messages:
            yield messages
    finally:
        # A child whose messages were not all read may still be at work.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
