"""Line-oriented JSON helpers with deterministic serialization.

All files the toolkit writes go through :func:`dumps`, which keeps key
insertion order and compact separators so identical data always produces
identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar

from .errors import IngestError

T = TypeVar("T")


def dumps(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Open a temp file beside ``path`` for writing UTF-8 text, with no
    newline translation.

    On a clean exit the temp file replaces ``path`` in one rename, so
    ``path`` holds either its old bytes or the complete new ones; on an
    exception the temp file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each string as one line, atomically; returns the line count."""
    count = 0
    try:
        with atomic_open(path) as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
                count += 1
    except OSError as exc:
        raise IngestError(f"cannot write {path}: {exc}") from exc
    return count


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write one JSON document per line, atomically; returns the line count."""
    return write_lines(path, map(dumps, records))


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


def decode(line: str) -> Any:
    """``json.loads(line)``; any failure to decode is one ValueError.

    Besides a syntax error, that covers an integer literal over the
    interpreter's digit limit (a plain ValueError) and nesting too deep for
    the decoder (a RecursionError). The message starts ``invalid JSON:``.

    Every reader decodes one value per line, so the usual path calls the
    decoder's scanner directly: ``json.loads`` adds a BOM check, two
    whitespace scans and three Python frames around the same scan. A value
    the scanner reads to the end of ``line``, or to JSON whitespace only,
    is exactly what ``json.loads`` would return. Any other outcome (an
    error, trailing data, or leading whitespace or a BOM, where the scan
    cannot start) is decoded again by ``json.loads``, which stays the only
    source of error texts.
    """
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        pass
    else:
        if end == len(line) or not line[end:].strip(_JSON_WHITESPACE):
            return value
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc


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


def require(rec: dict, key: str, *kinds: type) -> Any:
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


def optional(rec: dict, key: str, *kinds: type) -> Any:
    """None if ``key`` is absent or null, else ``require(rec, key, *kinds)``."""
    return None if rec.get(key) is None else require(rec, key, *kinds)


def load_jsonl(path: str | Path) -> list[Any]:
    """Strict loader: any malformed line is an ingest error."""
    return list(iter_records(path, lambda rec: rec, "record"))
