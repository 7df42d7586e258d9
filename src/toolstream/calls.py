"""Bracketed API-call parsing, normalization, and rendering.

A call is a single bracketed expression of the shape

    [ApiName(key='value', count=3)]

Values may be single- or double-quoted strings with backslash escapes,
or bare unquoted runs. Parsing is total: every input maps to either a
ParsedCall or a ParseFailure, never an exception. A small recursive
scanner is used instead of a regular expression because quoted commas
and escape sequences make a single pattern fragile.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

__all__ = [
    "ApiCall",
    "ParsedCall",
    "ParseFailure",
    "FailureReason",
    "parse_first_call",
    "normalize_params",
    "render_call",
]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789")

# Characters that terminate an unquoted value run.
_UNQUOTED_STOP = set(",)']\"")

_QUOTES = ("'", '"')


@dataclass(frozen=True)
class ApiCall:
    """An API name plus an ordered sequence of (key, value) string pairs."""

    name: str
    params: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("API name must be nonempty")
        if any(ch in "[]()" for ch in self.name):
            raise ValueError(f"API name contains bracket characters: {self.name!r}")
        keys = [key for key, _ in self.params]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate parameter key in call {self.name}: {keys}")


class FailureReason(Enum):
    NO_BRACKET = "no_bracket"
    BAD_NAME = "bad_name"
    BAD_PARAM_SYNTAX = "bad_param_syntax"
    UNTERMINATED_STRING = "unterminated_string"
    EMPTY_OUTPUT = "empty_output"


@dataclass(frozen=True)
class ParsedCall:
    """A successfully parsed call plus the character span it came from."""

    call: ApiCall
    span: tuple[int, int]


@dataclass(frozen=True)
class ParseFailure:
    reason: FailureReason
    offset: int


ParseResult = Union[ParsedCall, ParseFailure]


def parse_first_call(text: str) -> ParseResult:
    """Scan left to right and return the first well-formed bracketed call.

    Later calls in the same text are ignored. When no candidate parses,
    the failure reported is the one diagnosed at the leftmost '['.
    """
    if not text or not text.strip():
        return ParseFailure(FailureReason.EMPTY_OUTPUT, 0)
    pos = text.find("[")
    if pos < 0:
        return ParseFailure(FailureReason.NO_BRACKET, 0)
    first_failure: ParseFailure | None = None
    while pos >= 0:
        result = _parse_candidate(text, pos)
        if isinstance(result, ParsedCall):
            return result
        if first_failure is None:
            first_failure = result
        pos = text.find("[", pos + 1)
    assert first_failure is not None
    return first_failure


def _parse_candidate(text: str, open_idx: int) -> ParseResult:
    """Attempt to parse one call whose '[' sits at open_idx."""
    n = len(text)
    i = open_idx + 1
    if i >= n or text[i] not in _NAME_START:
        return ParseFailure(FailureReason.BAD_NAME, i)
    j = i + 1
    while j < n and text[j] in _NAME_CHARS:
        j += 1
    name = text[i:j]
    if j >= n or text[j] != "(":
        # Bracketed text that is not name-then-parens is not a call at all.
        return ParseFailure(FailureReason.BAD_NAME, j)

    k = _skip_ws(text, j + 1)
    params: list[tuple[str, str]] = []
    seen_keys: set[str] = set()
    if k < n and text[k] == ")":
        k += 1
    else:
        while True:
            if k >= n or text[k] not in _NAME_START:
                return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, min(k, n))
            key_start = k
            k += 1
            while k < n and text[k] in _NAME_CHARS:
                k += 1
            key = text[key_start:k]
            k = _skip_ws(text, k)
            if k >= n or text[k] != "=":
                return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, min(k, n))
            k = _skip_ws(text, k + 1)
            if k >= n:
                return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, n)
            if text[k] in _QUOTES:
                scanned = _scan_quoted(text, k)
                if scanned is None:
                    return ParseFailure(FailureReason.UNTERMINATED_STRING, k)
                value, k = scanned
            else:
                val_start = k
                while k < n and text[k] not in _UNQUOTED_STOP:
                    k += 1
                value = text[val_start:k]
                if not value.strip():
                    return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, val_start)
            if key in seen_keys:
                return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, key_start)
            seen_keys.add(key)
            params.append((key, value))
            k = _skip_ws(text, k)
            if k < n and text[k] == ",":
                k = _skip_ws(text, k + 1)
                continue
            if k < n and text[k] == ")":
                k += 1
                break
            return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, min(k, n))

    k = _skip_ws(text, k)
    if k >= n or text[k] != "]":
        return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, min(k, n))
    return ParsedCall(ApiCall(name, tuple(params)), (open_idx, k + 1))


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i] in " \t":
        i += 1
    return i


def _scan_quoted(text: str, quote_idx: int) -> tuple[str, int] | None:
    """Scan a quoted value starting at its opening quote.

    Escape sequences for the quote characters and backslash are resolved;
    a backslash before any other character is kept verbatim. Returns the
    resolved value and the index just past the closing quote, or None if
    the string never closes.
    """
    quote = text[quote_idx]
    n = len(text)
    buf: list[str] = []
    k = quote_idx + 1
    while k < n:
        ch = text[k]
        if ch == "\\":
            if k + 1 < n:
                nxt = text[k + 1]
                if nxt in "'\"\\":
                    buf.append(nxt)
                else:
                    buf.append("\\")
                    buf.append(nxt)
                k += 2
                continue
            buf.append("\\")
            k += 1
            continue
        if ch == quote:
            return "".join(buf), k + 1
        buf.append(ch)
        k += 1
    return None


def normalize_params(call: ApiCall) -> dict[str, str]:
    """Canonical parameter map used for exact matching.

    Keys are sorted lexicographically and compared case-sensitively.
    Values are whitespace-trimmed and otherwise compared as scanned:
    quotes and escapes are resolved by the scanner alone, so a value that
    still holds a quote or backslash is never re-read.
    """
    return {k: v.strip() for k, v in sorted(call.params)}


def _escape_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("'", "\\'").replace('"', '\\"')
    )


def render_call(call: ApiCall) -> str:
    """Emit the canonical single-quoted text form of a call.

    Keys keep their stored order. parse_first_call(render_call(c))
    recovers a call equal to c up to normalization.
    """
    parts = [f"{key}='{_escape_value(value)}'" for key, value in call.params]
    return f"[{call.name}({', '.join(parts)})]"
