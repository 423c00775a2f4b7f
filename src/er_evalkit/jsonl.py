"""Line-oriented JSON helpers with deterministic serialization.

All files the toolkit writes go through :func:`dumps`, which keeps key
insertion order and compact separators so identical data always produces
identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager, suppress
from itertools import repeat, takewhile
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar

from .errors import IngestError

T = TypeVar("T")


# json.dumps with these arguments, minus building an encoder per call.
dumps = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


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
            fh.write(line)
            fh.write("\n")
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
    in binary, a line at a time, to find that place.
    """
    if isinstance(exc, UnicodeDecodeError):
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as found:
                    return (f"'utf-8' codec can't decode byte "
                            f"0x{raw[found.start]:02x} on line {lineno} at "
                            f"byte offset {found.start}: {found.reason}")
    return str(exc)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line_number, raw_line) pairs, skipping blank lines.

    A file that cannot be opened or is not UTF-8 is an IngestError naming it.
    """
    try:
        with open(path, "r", encoding=INPUT_ENCODING) as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped:
                    yield lineno, stripped
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(
            f"cannot read {path}: {read_failure(path, exc)}") from exc


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
    """Yield ``parse(record)`` for each JSON line of ``path``, in file order.

    Invalid JSON, and a KeyError, TypeError or ValueError raised by
    ``parse``, become one IngestError naming the file and line.
    """
    for lineno, line in read_lines(path):
        try:
            rec = decode(line)
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        try:
            value = parse(rec)
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"{path}:{lineno}: bad {what}: {exc}") from exc
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
