"""The only code that opens the harness's JSON, JSON-lines and CSV files.

Files are UTF-8. A JSON-lines file has one JSON value per line, ended by
"\\n" or "\\r\\n", and readers skip blank lines. A bad line raises the
caller's own error class as "<path>: line N: <reason>", so each caller
keeps its exit code.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = ["read_jsonl", "read_json", "write_jsonl_records", "write_json", "write_csv"]

_T = TypeVar("_T")

# Bad bytes and bad JSON are ValueErrors; a build function rejects a
# value of the wrong shape with any of the three.
_BAD_VALUE = (KeyError, TypeError, ValueError)


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc.msg})"
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def read_jsonl(path: str | Path, build: Callable[[object], _T], error: type[Exception]) -> list[_T]:
    """build(value) for the value on each non-blank line, in file order."""
    items: list[_T] = []
    # Bytes, decoded line by line: a bad byte names its line, and a lone
    # "\r" does not end one.
    with Path(path).open("rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                if text.strip():
                    items.append(build(json.loads(text)))
            except _BAD_VALUE as exc:
                raise error(f"{path}: line {line_no}: {_reason(exc)}") from exc
    return items


def read_json(path: str | Path, build: Callable[[object], _T], error: type[Exception]) -> _T:
    """build(value) for the file's one value; a bad file raises error("<path>: <reason>")."""
    try:
        return build(json.loads(Path(path).read_bytes().decode("utf-8")))
    except _BAD_VALUE as exc:
        raise error(f"{path}: {_reason(exc)}") from exc


def write_jsonl_records(path: str | Path, records: Iterable[object]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def write_json(path: str | Path, payload: object) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: Sequence[object], rows: Iterable[Sequence[object]]) -> None:
    """The csv module's default dialect, so lines end with "\\r\\n"."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
