"""Line-oriented JSON helpers with deterministic serialization.

All files the toolkit writes go through :func:`dumps`, which keeps key
insertion order and compact separators so identical data always produces
identical bytes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

from .errors import IngestError


def dumps(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Open a temp file beside ``path`` for writing text.

    On a clean exit the temp file replaces ``path`` in one rename, so
    ``path`` holds either its old bytes or the complete new ones; on an
    exception the temp file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write one JSON document per line, atomically; returns the line count."""
    count = 0
    try:
        with atomic_open(path) as fh:
            for rec in records:
                fh.write(dumps(rec))
                fh.write("\n")
                count += 1
    except OSError as exc:
        raise IngestError(f"cannot write {path}: {exc}") from exc
    return count


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line_number, raw_line) pairs, skipping blank lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped:
                    yield lineno, stripped
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc


def load_jsonl(path: str | Path) -> list[Any]:
    """Strict loader: any malformed line is an ingest error."""
    records = []
    for lineno, line in read_lines(path):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    return records
