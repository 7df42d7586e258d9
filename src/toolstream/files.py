"""The only code that decodes the harness's input files and standard input,
and that writes its JSON, JSON-lines and CSV files.

Input is UTF-8. A line-oriented input (JSON-lines, CSV, standard input)
is read as bytes and decoded line by line; a line ends with "\\n" or
"\\r\\n", and readers skip blank lines. A bad line raises ValueError (or
IngestionError, for the corpus and `parse`'s standard input) as
"<path>: line N: <reason>", so each input keeps its exit code; a
LineError that a build function raises keeps its class.

A JSON line (or file) that starts with a JSON value and holds only JSON
whitespace (" \\t\\r\\n") after it is decoded by one call of the scanner
json.loads itself uses. Every other line (one that starts with a blank or
a byte-order mark, holds extra data, or holds no value the scanner reads)
goes to json.loads, so each value and each error message is json.loads's.
JSON nested too deeply to decode is a bad value, not a RecursionError, and
so is any value but an object: "expected a JSON object, got an array".

A JSON file (a cache entry, blocks.json) is read with os.open and
os.read until end of file, without a buffered file object, whose set-up
would cost more than the read on every cache lookup: a small file takes
two reads, the second one empty.
"""

from __future__ import annotations

import csv
import json
import json.scanner
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

_T = TypeVar("_T")

# Bad bytes and bad JSON are ValueErrors and a bad CSV line is a
# csv.Error; a build function rejects a value of the wrong shape with a
# KeyError, TypeError or ValueError.
_BAD_VALUE = (KeyError, TypeError, ValueError, csv.Error)


class LineError(Exception):
    """A line that a build function rejects with an exit code of its own."""


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc.msg})"
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def read_lines(
    lines: Iterable[bytes],
    name: str | Path,
    parse: Callable[[str], object],
    build: Callable[[object], _T],
    error: type[Exception],
) -> Iterator[_T]:
    """build(parse(text)) for each non-blank line of a byte stream, in
    order; text is the line decoded as UTF-8, line ending included."""
    # Decoded line by line: a bad byte names its line, and a lone "\r"
    # does not end one.
    for line_no, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8")
            if text and not text.isspace():
                yield build(parse(text))
        except _BAD_VALUE as exc:
            raise error(f"{name}: line {line_no}: {_reason(exc)}") from exc
        except LineError as exc:
            raise type(exc)(f"{name}: line {line_no}: {exc}") from exc


_scan = json.scanner.make_scanner(json.JSONDecoder())


def _json_value(text: str) -> object:
    """json.loads(text), but the scanner's value alone when text starts
    with one and holds only JSON whitespace after it, as most lines do. A
    JSONDecodeError the scanner raises is json.loads's own: both scan from
    offset 0 with the default decoder's settings."""
    try:
        try:
            value, end = _scan(text, 0)
        except StopIteration:  # no value at offset 0: a blank or a BOM first
            return json.loads(text)
        return json.loads(text) if text[end:].strip(" \t\r\n") else value
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None


# The JSON type of each Python type that json decodes a value to.
_JSON_TYPES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def json_object(value: object, where: str = "") -> dict:
    """A JSON value that must be an object. The message names its JSON type,
    not the value, so a long value gives a short message."""
    if type(value) is dict:
        return value
    raise ValueError(f"{where}expected a JSON object, got {_JSON_TYPES[type(value)]}")


def read_jsonl(path: str | Path, build: Callable[[dict], _T], error: type[Exception]) -> list[_T]:
    """build(value) for the object on each non-blank line, in file order."""
    with open(path, "rb") as fh:
        return list(read_lines(fh, path, lambda text: json_object(_json_value(text)), build, error))


def _csv_fields(text: str) -> list[str]:
    return next(csv.reader([text]))


def read_csv(path: str | Path, build: Callable[[list[str]], _T]) -> list[_T]:
    """build(fields) for each non-blank line, header included, in file order."""
    with open(path, "rb") as fh:
        return list(read_lines(fh, path, _csv_fields, build, ValueError))


_READ_SIZE = 1 << 16


def read_json(path: str | Path, build: Callable[[dict], _T]) -> _T:
    """build(value) for the file's one object; a bad file raises ValueError("<path>: <reason>").
    An OSError names the path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, _READ_SIZE)]
        while chunks[-1]:
            chunks.append(os.read(fd, _READ_SIZE))
    except OSError as exc:  # os.read's own error (EISDIR on a directory) names no file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    try:
        return build(json_object(_json_value(b"".join(chunks).decode("utf-8"))))
    except _BAD_VALUE as exc:
        raise ValueError(f"{path}: {_reason(exc)}") from exc


def check_utf8(text: str, what: str) -> None:
    """Reject a decoded string that has no UTF-8 form: a JSON escape such as
    "\\ud800" decodes to a lone surrogate, which cannot be hashed or sent."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(
                f"{what} holds a lone surrogate {text[exc.start]!r} at offset {exc.start}"
            ) from None


def integer(value: object, what: str) -> int:
    """A JSON value that must be an integer: an int, or a float with no
    fractional part. Anything else, a boolean or a string included, is a
    ValueError naming what."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")


def in_range(value: int, least: int, most: int, what: str) -> int:
    """value, or a ValueError "<what> <value> is outside <what>s <least>..<most>"."""
    if least <= value <= most:
        return value
    raise ValueError(f"{what} {value} is outside {what}s {least}..{most}")


def array(value: object, what: str) -> list:
    """A JSON value that must be an array."""
    if type(value) is list:
        return value
    raise ValueError(f"{what} must be an array, got {json.dumps(value)}")


def string(value: object, what: str) -> str:
    """A JSON value that must be a string. Anything else, null or a list
    included, is a ValueError naming what."""
    if type(value) is str:
        return value
    raise ValueError(f"{what} must be a string, got {json.dumps(value)}")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write lines that each end with "\\n", as UTF-8."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_jsonl_records(path: str | Path, records: Iterable[object]) -> None:
    write_lines(path, (json.dumps(record) + "\n" for record in records))


def write_json(path: str | Path, payload: object) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: Sequence[object], rows: Iterable[Sequence[object]]) -> None:
    """The csv module's default dialect, so lines end with "\\r\\n"."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
