"""A file's two halves at once, the second in a forked child.

Where each line of a regular file is worked on apart from the others, the
file cut at a line start (:func:`jsonl.middle_line`) is two independent
parts whose results join in file order. :func:`forked` runs the second
part's work in a child made by ``os.fork`` after the imports, so it pays no
interpreter start-up, while the caller does the first part's; the caller
then reads the child's results in the order the child made them. This is
the one place a process is forked: aggregate-ctr counts its click log this
way, and evaluate and diagnose scan their run file.
"""

from __future__ import annotations

import marshal
import os
import signal
from contextlib import contextmanager
from itertools import islice
from typing import IO, Any, Callable, Iterable, Iterator, NoReturn

# Rows per message: a child's results cross the pipe a slice at a time, so
# neither side holds them a second time as one blob.
ROWS_PER_MESSAGE = 64


def two_cpus() -> bool:
    """Whether a forked child can work on a CPU of its own."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


def batches(rows: Iterable) -> Iterator[list]:
    """``rows`` as lists of ``ROWS_PER_MESSAGE``, the last perhaps shorter."""
    rows = iter(rows)
    while batch := list(islice(rows, ROWS_PER_MESSAGE)):
        yield batch


def _child(work: Callable[[], Iterable[Any]], readable: int,
           writable: int) -> NoReturn:
    """In a forked child: send each message ``work()`` makes through the
    pipe's write end as a length-prefixed ``marshal`` blob, then an empty
    frame. Ends only through ``os._exit``, so nothing of the parent's (a
    landing, a test runner) unwinds here; an exception ends it without the
    empty frame."""
    code = 1
    try:
        os.close(readable)
        with os.fdopen(writable, "wb") as pipe:
            for message in work():
                blob = marshal.dumps(message)
                pipe.write(len(blob).to_bytes(8, "little") + blob)
            pipe.write(bytes(8))
        code = 0
    finally:
        os._exit(code)


def _messages(pipe: IO[bytes], failure: str) -> Iterator[Any]:
    """Each message :func:`_child` sent, until its empty frame; a pipe that
    ends before that frame is ``ChildProcessError(failure)``."""
    while True:
        head = pipe.read(8)
        size = int.from_bytes(head, "little")
        blob = pipe.read(size) if len(head) == 8 else b""
        if len(head) < 8 or len(blob) < size:
            raise ChildProcessError(failure)
        if not size:
            return
        yield marshal.loads(blob)


@contextmanager
def forked(work: Callable[[], Iterable[Any]],
           failure: str) -> Iterator[Iterator[Any] | None]:
    """Run ``work()`` in a forked child while the body runs here.

    The body gets the iterator of the messages ``work()`` yields, each any
    value ``marshal`` takes, in order; a child that ends without all of
    them, as by an exception, makes it raise ``ChildProcessError(failure)``.
    The messages wait in a pipe until the body reads them, so a body that
    does its own part before it reads runs at the same time as the child.
    If the body raises or is interrupted, the child is killed first; it is
    reaped on every path. The body gets None if no child can be made, and
    then does all the work itself.
    """
    readable, writable = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(readable)
        os.close(writable)
        yield None
        return
    if not pid:
        _child(work, readable, writable)
    try:
        os.close(writable)
        with os.fdopen(readable, "rb") as pipe:
            yield _messages(pipe, failure)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
