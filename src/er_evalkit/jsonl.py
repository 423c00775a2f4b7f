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


# Every text input is read as UTF-8 through this codec, which also drops a
# byte-order mark at the very start of a file, and only there.
INPUT_ENCODING = "utf-8-sig"


def read_failure(path: str | Path, exc: Exception) -> str:
    """Why reading ``path`` failed: ``str(exc)``, except that a file that
    is not UTF-8 is named by the line and the byte offset within it.

    A text reader counts a decode error's position from the start of the
    chunk it was decoding, so only this error path reads the file again,
    in binary, to find that place. Lines are numbered as the readers'
    universal newlines number them: a lone CR, a CRLF and an LF each end
    one.
    """
    if isinstance(exc, UnicodeDecodeError):
        with open(path, "rb") as fh:
            lineno = 1
            # Each piece ends in LF, so a CR anywhere but just before that
            # LF ends a line alone, and a CRLF at the end is one line end.
            for raw in fh:
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as found:
                    head = raw[:found.start]
                    line = lineno + head.count(b"\r")
                    offset = found.start - head.rfind(b"\r") - 1
                    return (f"'utf-8' codec can't decode byte "
                            f"0x{raw[found.start]:02x} on line {line} at "
                            f"byte offset {offset}: {found.reason}")
                lineno += (raw.count(b"\r") + raw.endswith(b"\n")
                           - raw.endswith(b"\r\n"))
    return str(exc)


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


@contextmanager
def open_text(path: str | Path, start: int = 0,
              end: int | None = None) -> Iterator[IO[str]]:
    """Bytes ``start`` to ``end`` (the file's end if None) of ``path``, as
    UTF-8 text with universal newlines, streamed; only a range that starts
    at byte 0 drops a byte-order mark. Each range a file is cut into at
    line starts (:func:`middle_line`) reads the lines a whole read would.

    A file that cannot be opened, or an OSError or a UnicodeDecodeError
    while the stream is open, is the IngestError ``cannot read PATH: ...``,
    the same whichever range met it.
    """
    try:
        with open(path, "rb") as raw:
            if start:
                raw.seek(start)
            with io.TextIOWrapper(
                    raw if end is None else _Range(raw, end - start),
                    encoding="utf-8" if start else INPUT_ENCODING) as text:
                yield text
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(
            f"cannot read {path}: {read_failure(path, exc)}") from exc


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
    """Yield (line_number, raw_line) pairs of bytes ``start`` to ``end`` of
    ``path`` (:func:`open_text`), numbered from 1 at ``start``, skipping
    blank lines.

    A file that cannot be opened or is not UTF-8 is an IngestError naming it.
    """
    with open_text(path, start, end) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped:
                yield lineno, stripped


def count_lines(path: str | Path, end: int) -> int:
    """How many lines, blank ones included, :func:`read_lines` numbers in
    the first ``end`` bytes of ``path``."""
    with open_text(path, 0, end) as fh:
        return sum(1 for _ in fh)


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


def parse_record(line: str, parse: Callable[[Any], T], what: str) -> T:
    """``parse(decode(line))``. Any failure is one ValueError: invalid JSON
    as :func:`decode` words it, or ``bad WHAT: ...`` for a KeyError,
    TypeError or ValueError raised by ``parse``."""
    rec = decode(line)
    try:
        return parse(rec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {what}: {exc}") from exc


def iter_records(path: str | Path, parse: Callable[[Any], T], what: str,
                 start: int = 0, end: int | None = None) -> Iterator[T]:
    """Yield ``parse(record)`` for each JSON line in bytes ``start`` to
    ``end`` of ``path``, in file order.

    A line :func:`parse_record` fails becomes one IngestError naming the
    file and line.
    """
    for lineno, line in read_lines(path, start, end):
        try:
            value = parse_record(line, parse, what)
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
