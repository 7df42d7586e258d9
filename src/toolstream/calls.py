"""Bracketed API-call parsing, normalization, and rendering.

A call is a single bracketed expression of the shape

    [ApiName(key='value', count=3)]

Values may be single- or double-quoted strings with backslash escapes,
or bare unquoted runs. Parsing is total: every input maps to either a
ParsedCall or a ParseFailure, never an exception. A small scanner over
token patterns defines what a call is, and it alone reads escapes and
reports failures. Most texts hold a well-formed call without escapes at
their first '[', so one linear pattern for such a call is tried there
first; any other input goes to the scanner, which gives the same result
the pattern would have. Scoring reads a matched call's name and normalized
parameters straight from that match (scoring_view).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Union

__all__ = [
    "ApiCall",
    "ParsedCall",
    "ParseFailure",
    "FailureReason",
    "parse_first_call",
    "scoring_view",
    "normalize_params",
    "render_call",
]

# Scanner tokens: API names and keys, blank runs, and an unquoted value run,
# which stops at a comma, a closing paren or bracket, or a quote.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RUN = r"[^,)'\"\]]*"
_IDENT = re.compile(_NAME)
_WS = re.compile(r"[ \t]*")
_UNQUOTED = re.compile(_RUN)

_QUOTES = ("'", '"')

# The fast path: a whole call whose quoted values hold no backslash, read as
# the scanner reads it. Every branch is decided by the next character, so a
# failed match takes linear time: blanks after '=' cannot start a bare value,
# and a bare value holds the blanks after it, so none may follow it. A bare
# value starts with a non-blank (\s is exactly str.isspace), so it is never
# blank. _PAIR reads the (key, value) pairs back from the parameter span.
_QUOTED = "|".join([r"'[^'\\]*'", r'"[^"\\]*"'])
_BARE = r"[^\s,)'\"\]]" + _RUN
_PARAM = rf"{_NAME}[ \t]*=[ \t]*(?:(?:{_QUOTED})[ \t]*|{_BARE})"
_CALL = re.compile(
    rf"\[({_NAME})\([ \t]*(?:\)|({_PARAM}(?:,[ \t]*{_PARAM})*)\))[ \t]*\]"
)
_PAIR = re.compile(rf"({_NAME})[ \t]*=[ \t]*({_QUOTED}|{_BARE})")


@dataclass(frozen=True)
class ApiCall:
    """An API name plus an ordered sequence of (key, value) string pairs.

    Only the scanner checks a call: one parsed from text has identifier
    name and keys, all distinct. A call built directly is taken as given.
    """

    name: str
    params: tuple[tuple[str, str], ...] = ()


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
    the failure reported is the one diagnosed at the leftmost '['. A text
    that holds a '[' is never blank. A call at the first '[' that _CALL
    matches, with distinct keys, is read from the match; the scanner reads
    every other text.
    """
    pos = text.find("[")
    if pos < 0:
        reason = FailureReason.NO_BRACKET if text.strip() else FailureReason.EMPTY_OUTPUT
        return ParseFailure(reason, 0)
    m = _CALL.match(text, pos)
    if m is not None:
        name, body = m.groups()
        if body is None:
            return ParsedCall(ApiCall(name), m.span())
        params = tuple(
            [(key, value[1:-1] if value[0] in _QUOTES else value)
             for key, value in _PAIR.findall(body)]
        )
        if len(dict(params)) == len(params):
            return ParsedCall(ApiCall(name, params), m.span())
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


def scoring_view(text: str) -> tuple[str, dict[str, str]] | None:
    """The name and normalized parameters of the call that _CALL matches at
    the first '[' with distinct keys, as parse_first_call and then
    normalize_params would give them; None for every other text, which
    only parse_first_call can read."""
    pos = text.find("[")
    if pos < 0:
        return None
    m = _CALL.match(text, pos)
    if m is None:
        return None
    name, body = m.groups()
    if body is None:
        return name, {}
    # The pairs are unquoted as in parse_first_call, then trimmed as in
    # normalize_params; dict equality and .get ignore key order, so no sort.
    pairs = _PAIR.findall(body)
    params = {key: (value[1:-1] if value[0] in _QUOTES else value).strip()
              for key, value in pairs}
    return (name, params) if len(params) == len(pairs) else None


def _parse_candidate(text: str, open_idx: int) -> ParseResult:
    """Attempt to parse one call whose '[' sits at open_idx."""
    ident, ws = _IDENT.match, _WS.match
    n = len(text)
    i = open_idx + 1
    m = ident(text, i)
    if m is None:
        return ParseFailure(FailureReason.BAD_NAME, i)
    name, j = m.group(), m.end()
    if j >= n or text[j] != "(":
        # Bracketed text that is not name-then-parens is not a call at all.
        return ParseFailure(FailureReason.BAD_NAME, j)

    k = ws(text, j + 1).end()
    params: list[tuple[str, str]] = []
    seen_keys: set[str] = set()
    if k < n and text[k] == ")":
        k += 1
    else:
        while True:
            m = ident(text, k)
            if m is None:
                return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, k)
            key_start, key = k, m.group()
            k = ws(text, m.end()).end()
            if k >= n or text[k] != "=":
                return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, k)
            k = ws(text, k + 1).end()
            if k >= n:
                return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, n)
            if text[k] in _QUOTES:
                scanned = _scan_quoted(text, k)
                if scanned is None:
                    return ParseFailure(FailureReason.UNTERMINATED_STRING, k)
                value, k = scanned
            else:
                val_start = k
                k = _UNQUOTED.match(text, k).end()
                value = text[val_start:k]
                if not value.strip():
                    return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, val_start)
            if key in seen_keys:
                return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, key_start)
            seen_keys.add(key)
            params.append((key, value))
            k = ws(text, k).end()
            if k < n and text[k] == ",":
                k = ws(text, k + 1).end()
                continue
            if k < n and text[k] == ")":
                k += 1
                break
            return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, k)

    k = ws(text, k).end()
    if k >= n or text[k] != "]":
        return ParseFailure(FailureReason.BAD_PARAM_SYNTAX, k)
    return ParsedCall(ApiCall(name, tuple(params)), (open_idx, k + 1))


def _scan_quoted(text: str, quote_idx: int) -> tuple[str, int] | None:
    """Scan a quoted value starting at its opening quote.

    Escape sequences for the quote characters and backslash are resolved;
    a backslash before any other character is kept verbatim. Returns the
    resolved value and the index just past the closing quote, or None if
    the string never closes.
    """
    quote = text[quote_idx]
    k = quote_idx + 1
    close = text.find(quote, k)
    if close < 0:
        return None
    if text.find("\\", k, close) < 0:
        # No backslash before the first matching quote: it closes the value.
        return text[k:close], close + 1
    n = len(text)
    buf: list[str] = []
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
