"""Line-oriented JSON helpers with deterministic serialization.

All files the toolkit writes go through :func:`dumps`, which keeps key
insertion order and compact separators so identical data always produces
identical bytes.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import stat
from contextlib import contextmanager, suppress
from itertools import repeat, takewhile
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar

from .errors import IngestError

T = TypeVar("T")


# The C encoder that ``json.JSONEncoder(ensure_ascii=False, separators=(",",
# ":")).encode`` builds on every call, from the arguments it passes, built
# once: circular-reference markers, the default hook, the non-ASCII string
# encoder, no indent, the key and item separators, then sort_keys, skipkeys
# and allow_nan at their defaults.
_markers: dict = {}
_encode = json.encoder.c_make_encoder(
    _markers, json.JSONEncoder().default, json.encoder.encode_basestring,
    None, ":", ",", False, False, True)


def dumps(value: Any) -> str:
    """``json.dumps(value, ensure_ascii=False, separators=(",", ":"))``."""
    try:
        return "".join(_encode(value, 0))
    except BaseException:
        # A failed encode leaves the markers of the containers it was in.
        _markers.clear()
        raise


# (temp, target) pairs, and (directory, None) for each directory made.
_pending: list[tuple[Path, str | Path | None]] | None = None


@contextmanager
def landing() -> Iterator[None]:
    """Land the files :func:`atomic_open` writes in this context together.

    Landings nest. One left by an exception, KeyboardInterrupt included,
    removes the temp files opened in it, then the directories
    :func:`make_dirs` made in it that are empty, deepest first. A clean exit
    from the outermost renames each temp file left over its target, in the
    order they opened; a failed rename is ``cannot write PATH: ...``."""
    global _pending
    outer = _pending is None
    pending = _pending = [] if outer else _pending
    start = len(pending)
    try:
        yield
        for tmp, target in pending if outer else ():
            try:
                if target is not None:
                    os.replace(tmp, target)
            except OSError as exc:
                raise IngestError(f"cannot write {target}: {exc}") from exc
    except BaseException:
        for made, target in reversed(pending[start:]):
            with suppress(OSError):
                (os.rmdir if target is None else os.unlink)(made)
        del pending[start:]
        raise
    finally:
        if outer:
            _pending = None


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Open a temp file beside ``path`` for writing UTF-8 text, with no
    newline translation, to land whole with the open :func:`landing` or its
    own. A ``path`` that is a directory (the empty path is ``.``), or
    anything else but a regular file or a symlink, fails before the temp
    file opens. An OSError, the body's writes included, is the IngestError
    ``cannot write PATH: ...``.
    """
    target = Path(path)
    with landing():
        try:
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError("is a directory")
            if target.exists() and not (target.is_file()
                                        or target.is_symlink()):
                raise OSError("not a regular file")
            tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            _pending.append((tmp, path))
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                yield fh
        except OSError as exc:
            raise IngestError(f"cannot write {path}: {exc}") from exc


def make_dirs(path: str | Path) -> None:
    """``Path(path).mkdir(parents=True, exist_ok=True)``, registering each
    directory it makes with the open :func:`landing`, or its own."""
    path = Path(path)
    with landing():
        _pending.extend((made, None) for made in [*takewhile(
            lambda p: not p.exists(), (path, *path.parents))][::-1])
        path.mkdir(parents=True, exist_ok=True)


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each string as one line, atomically; returns the line count."""
    count = 0
    with atomic_open(path) as fh:
        for line in lines:
            fh.write(line + "\n")
            count += 1
    return count


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write one JSON document per line, atomically; returns the line count."""
    return write_lines(path, map(dumps, records))


def as_records(table: tuple, rows: Iterable[Iterable]) -> Iterator[dict]:
    """Each row, its values in a :func:`fields` table's key order, as a dict."""
    return map(dict, map(zip, repeat([key for key, _, _ in table]), rows))


def checked(text: str, lineno: int = 1, bom: bool = False) -> str:
    """``text``, read with universal newlines and ``errors="surrogateescape"``
    from line ``lineno`` on, checked to be UTF-8; with ``bom``, less a
    byte-order mark that starts it, dropped after the check so that it
    counts in a byte offset.

    An escaped byte is the ValueError ``'utf-8' codec can't decode byte
    0xNN on line L at byte offset O: REASON``, O and REASON those of a
    strict decode of its line's bytes. No UTF-8 sequence holds a CR or LF
    byte, so the lines are those a strict read would split.
    """
    if text.isascii():
        return text
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raw = text.encode("utf-8", "surrogateescape")
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as found:
            head = raw[:found.start]
            line = lineno + head.count(b"\n")
            offset = len(head) - head.rfind(b"\n") - 1
            raise ValueError(
                f"'utf-8' codec can't decode byte 0x{raw[found.start]:02x} "
                f"on line {line} at byte offset {offset}: {found.reason}"
            ) from None
    return text.removeprefix("\ufeff") if bom else text


# Characters per read of the bytes before a range, whose line breaks it counts.
_HEAD_CHUNK = 1 << 16


class _Range(io.RawIOBase):
    """The next ``left`` bytes of a binary file."""

    def __init__(self, raw: IO[bytes], left: int):
        self.raw, self.left = raw, left

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.raw.readinto(memoryview(buffer)[:self.left])
        self.left -= count
        return count


def open_text(path: str | Path, start: int = 0, end: int | None = None,
              numbered: bool = False) -> Iterator[Any]:
    """The lines of bytes ``start`` to ``end`` (the file's end if None) of
    ``path``, as UTF-8 text with universal newlines, streamed, each
    :func:`checked` as it comes under its line number in the whole file;
    only line 1 drops a byte-order mark. With ``numbered``, (line number,
    line stripped) of each nonblank line instead. Each range a file is cut
    into at line starts (:func:`middle_line`) reads, and numbers, the
    lines a whole read would.

    A range past byte 0 first counts the line breaks before ``start``,
    decoded as its own lines are, ``_HEAD_CHUNK`` characters at a time; a
    bad byte there is left for the range that holds it to report.

    A file that cannot be opened, an OSError while the stream is open, or
    a line that is not UTF-8 is the IngestError ``cannot read PATH: ...``.
    """
    try:
        with open(path, "rb") as raw:
            first = 1
            if start:
                with io.TextIOWrapper(_Range(raw, start), encoding="utf-8",
                                      errors="surrogateescape") as head:
                    first += sum(chunk.count("\n") for chunk in iter(
                        lambda: head.read(_HEAD_CHUNK), ""))
            with io.TextIOWrapper(
                    raw if end is None else _Range(raw, end - start),
                    encoding="utf-8", errors="surrogateescape") as text:
                for lineno, line in enumerate(text, start=first):
                    if not line.isascii():
                        try:
                            line = checked(line, lineno, lineno == 1)
                        except ValueError as exc:
                            raise IngestError(
                                f"cannot read {path}: {exc}") from exc
                    if not numbered:
                        yield line
                    elif line := line.strip():
                        yield lineno, line
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc


def middle_line(path: str | Path) -> int | None:
    """Where the second half of ``path`` starts: the first line start at or
    after half its size. None if ``path`` is not a regular file that can be
    read or no line starts in its second half, so that it is read whole."""
    try:
        info = os.stat(path)
        half = info.st_size // 2
        if not half or not stat.S_ISREG(info.st_mode):
            return None
        with open(path, "rb") as fh:
            fh.seek(half - 1)
            fh.readline()
            split = fh.tell()
        return split if split < info.st_size else None
    except OSError:
        return None


def read_lines(path: str | Path, start: int = 0,
               end: int | None = None) -> Iterator[tuple[int, str]]:
    """(line_number, stripped line) of each nonblank line of bytes
    ``start`` to ``end`` of ``path`` (:func:`open_text`), numbered in the
    whole file.

    A file that cannot be opened or is not UTF-8 is an IngestError naming it.
    """
    return open_text(path, start, end, numbered=True)


# The decoder's own scanner, called once per value; see decode.
_scan_once = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"
_SURROGATE = re.compile("[\ud800-\udfff]")


def decode(line: str) -> Any:
    """``json.loads(line)``; any failure to decode is one ValueError.

    Besides a syntax error, that covers an integer literal over the
    interpreter's digit limit (a plain ValueError), nesting too deep for
    the decoder (a RecursionError), and a string with a lone surrogate,
    which a ``\\u`` escape can spell and UTF-8 cannot encode (``lone
    surrogate ...``). The message starts ``invalid JSON:``.

    Every reader decodes one value per line, so the usual path calls the
    decoder's scanner directly: ``json.loads`` adds a BOM check, two
    whitespace scans and three Python frames around the same scan. A value
    the scanner reads to the end of ``line``, or to JSON whitespace only,
    is exactly what ``json.loads`` would return. Any other outcome (an
    error, trailing data, or leading whitespace or a BOM, where the scan
    cannot start) is decoded again by ``json.loads``, which stays the only
    source of error texts. Only a value whose line holds ``\\u`` (found by
    a memchr for the backslash first) is walked for surrogates, by a stack
    that takes any nesting.
    """
    try:
        value, end = _scan_once(line, 0)
        scanned = end == len(line) or not line[end:].strip(_JSON_WHITESPACE)
    except (StopIteration, ValueError, RecursionError):
        scanned = False
    if not scanned:
        try:
            value = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
    stack = [value] if "\\" in line and "\\u" in line else []
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack += [*item, *item.values()]
        elif isinstance(item, list):
            stack += item
        elif isinstance(item, str) and _SURROGATE.search(item):
            raise ValueError("invalid JSON: lone surrogate "
                             f"{_SURROGATE.search(item).group()!r}")
    return value


def iter_records(path: str | Path, parse: Callable[[Any], T],
                 what: str) -> Iterator[T]:
    """Yield ``parse(record)`` for each JSON line of ``path``, in file
    order.

    A line that fails is one IngestError naming the file and line: invalid
    JSON as :func:`decode` words it, or ``bad WHAT: ...`` for a KeyError,
    TypeError or ValueError raised by ``parse``.
    """
    for lineno, line in read_lines(path):
        try:
            rec = decode(line)
            try:
                value = parse(rec)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad {what}: {exc}") from exc
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        yield value


def require(rec: dict, key: str, kinds: tuple[type, ...]) -> Any:
    """``rec[key]``, checked to be exactly one of ``kinds``.

    The check is on the exact type, so a bool never passes for an int, and
    a float must also be finite. Where a float is allowed, an int must
    convert to a finite float.
    """
    value = rec[key]
    if type(value) not in kinds:
        names = " or ".join("null" if kind is type(None) else kind.__name__
                            for kind in kinds)
        raise TypeError(f"{key} must be {names}, got {value!r}")
    if type(value) in (int, float) and float in kinds:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def optional(rec: dict, key: str, kinds: tuple[type, ...]) -> Any:
    """None if ``key`` is absent or null, else ``require(rec, key, kinds)``."""
    return None if rec.get(key) is None else require(rec, key, kinds)


def fields(rec: dict, table: tuple) -> list:
    """``check(rec, key, types)`` per row of a record type's table, which
    lists its keys in writer order; ``check`` is mostly require or optional."""
    return [check(rec, key, types) for key, check, types in table]


def load_jsonl(path: str | Path) -> list[Any]:
    """Strict loader: any malformed line is an ingest error."""
    return list(iter_records(path, lambda rec: rec, "record"))
