"""Prompt rendering for the two context conditions, plus length accounting.

Condition A strips prior API-Request/API-Response lines from the context
before rendering; Condition B keeps the full action-observation trace.
Both renderings end with the same next-action cue line.

Each episode is rendered once per condition, as one text in which every
kept turn is a line ended by a newline. An example's prompt is the prefix
of that text up to its cut, then the cue; render_prompt returns a view
that holds the rendering and the cut, so no prompt's text is kept apart
from its episode's rendering. A prompt's whitespace-token count is the
sum of the counts of its lines plus the cue's: no token spans a newline,
so the sum equals len(prompt.split()). The same pass keeps a
running sha256 of the text, so the digest of the prompt at each
api_request cut is a copy of the running hash updated with the cue. The
export JSON-escapes each rendering once and slices every prompt's escaped
form from it, which is exact because JSON escapes each character on its
own.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import Episode, IngestionError, Role, ScoredExample
from .files import check_utf8, read_jsonl, string, write_lines


class Condition(Enum):
    """The two context conditions; enum values are the serialized tags."""

    A_STRIPPED = "A"
    B_TRAJECTORY = "B"

    # Members are singletons, so identity hashing is exact and runs no Python.
    __hash__ = object.__hash__


# Line prefix for each turn role, and the cue line that ends every prompt.
PREFIXES: dict[Role, str] = {
    Role.USER: "User: ",
    Role.ASSISTANT_TEXT: "Assistant: ",
    Role.API_REQUEST: "API-Request: ",
    Role.API_RESPONSE: "API-Response: ",
}
CUE = "API-Request:"
_CUE_CHARS = len(CUE)
_CUE_TOKENS = len(CUE.split())
_CUE_BYTES = CUE.encode("utf-8")
_ESCAPED_CUE = _escape(CUE)[1:-1]

# The roles whose turns each condition keeps: A strips the action-observation
# trace, B keeps every turn.
KEPT_ROLES: dict[Condition, frozenset[Role]] = {
    Condition.A_STRIPPED: frozenset({Role.USER, Role.ASSISTANT_TEXT}),
    Condition.B_TRAJECTORY: frozenset(Role),
}


class RenderedPrompt:
    """One example's prompt under one condition.

    A prompt that render_prompt returns is a view on its episode's
    rendering, which the episode already keeps: it holds that text and the
    offset of its cut, and its text is cut on read. A prompt built from a
    text (as read back from a file) holds that text.
    """

    __slots__ = ("example_id", "condition", "_source", "_end", "ws_token", "digest", "_hash")

    def __init__(
        self, example_id: str, condition: Condition, text: str,
        ws_token: int | None = None, digest: bytes | None = None,
        end: int | None = None,
    ):
        self.example_id = example_id
        self.condition = condition
        # With end, text is the episode's rendering, and the prompt is its
        # first end characters, then the cue.
        self._source = text
        self._end = end
        # len(text.split()), as render_prompt counts it; None on a prompt
        # read back from a file.
        self.ws_token = ws_token
        # The sha256 digest of text, as render_prompt takes it from the
        # rendering at an api_request cut; None on other prompts.
        self.digest = digest
        self._hash: str | None = None

    @property
    def text(self) -> str:
        end = self._end
        return self._source if end is None else self._source[:end] + CUE

    @property
    def chars(self) -> int:
        """len(text), without building the text."""
        end = self._end
        return len(self._source) if end is None else end + _CUE_CHARS

    @property
    def prompt_hash(self) -> str:
        """The hex sha256 of text. It is computed on first read and kept,
        so the completion records of one prompt share one string."""
        if self._hash is None:
            digest = self.digest
            if digest is None:
                digest = hashlib.sha256(self.text.encode("utf-8")).digest()
            self._hash = digest.hex()
        return self._hash


def _rendering(
    episode: Episode, condition: Condition
) -> tuple[str, list[int], list[int], dict[int, bytes]]:
    """The episode's kept turns as one text of newline-ended lines, with the end
    offset of the lines before each cut index 0..len(turns), their
    whitespace-token count, and, at each api_request turn's index, the sha256
    digest of those lines and the cue. Built on first use and kept on the
    episode."""
    rendering = episode.renderings.get(condition)
    if rendering is None:
        prefixes = {role: PREFIXES[role] for role in KEPT_ROLES[condition]}
        request = Role.API_REQUEST
        lines: list[str] = []
        ends, tokens = [0], [0]
        digests: dict[int, bytes] = {}
        end = count = hashed = 0
        running = hashlib.sha256()
        for index, turn in enumerate(episode.turns):
            if turn.role is request:
                # The lines since the last cut, hashed as one chunk.
                running.update("".join(lines[hashed:]).encode("utf-8"))
                hashed = len(lines)
                at_cut = running.copy()
                at_cut.update(_CUE_BYTES)
                digests[index] = at_cut.digest()
            prefix = prefixes.get(turn.role)
            if prefix is not None:
                line = prefix + turn.text + "\n"
                lines.append(line)
                end += len(line)
                count += len(line.split())
            ends.append(end)
            tokens.append(count)
        rendering = episode.renderings[condition] = ("".join(lines), ends, tokens, digests)
    return rendering


def render_prompt(example: ScoredExample, condition: Condition) -> RenderedPrompt:
    """Render one example's context under the given condition, as a view on
    its episode's rendering."""
    text, ends, tokens, digests = _rendering(example.episode, condition)
    cut = example.cut_index
    return RenderedPrompt(
        example.id, condition, text, tokens[cut] + _CUE_TOKENS, digests.get(cut), ends[cut]
    )


def _run_tokenizer(command: Sequence[str], text: str) -> int:
    import subprocess

    try:
        proc = subprocess.run(
            list(command), input=text.encode("utf-8"), capture_output=True, check=True
        )
        return int(proc.stdout.decode("utf-8").strip())
    except (OSError, subprocess.CalledProcessError, ValueError) as exc:
        raise IngestionError(
            f"external tokenizer command failed: {list(command)!r}: {exc}"
        ) from exc


def context_stats(
    prompts: Iterable[RenderedPrompt],
    tokenizer_cmd: Sequence[str] | None = None,
) -> dict[str, dict[str, int]]:
    """Per-condition totals of char, whitespace-token, and optional
    external-tokenizer counts of prompts as render_prompt returns them.
    External counts appear only when a tokenizer command is configured."""
    totals: dict[str, dict[str, int]] = {}
    for prompt in prompts:
        tag = prompt.condition.value
        bucket = totals.setdefault(tag, {"char": 0, "ws_token": 0})
        bucket["char"] += prompt.chars
        bucket["ws_token"] += prompt.ws_token
        if tokenizer_cmd is not None:
            bucket["ext_token"] = bucket.get("ext_token", 0) + _run_tokenizer(
                tokenizer_cmd, prompt.text
            )
    return totals


def read_rendered_jsonl(path: str | Path) -> list[RenderedPrompt]:
    """Read a rendered-prompt export back."""
    def prompt(raw) -> RenderedPrompt:
        text = string(raw["prompt"], "prompt")
        check_utf8(text, "prompt")
        return RenderedPrompt(
            string(raw["example_id"], "example_id"), Condition(raw["condition"]), text
        )

    return read_jsonl(path, prompt, ValueError)


def _escaped_rendering(
    text: str, ends: Sequence[int], cuts: Iterable[int]
) -> tuple[str, dict[int, int]]:
    """A rendering's text up to its last cut as JSON escapes it, without the
    quotes, and the offset in it of each cut's end (cuts in increasing order),
    escaped from cut to cut."""
    chunks: list[str] = []
    escaped_ends: dict[int, int] = {}
    start = length = 0
    for cut in cuts:
        chunk = _escape(text[start : ends[cut]])[1:-1]
        chunks.append(chunk)
        length += len(chunk)
        escaped_ends[cut] = length
        start = ends[cut]
    return "".join(chunks), escaped_ends


def _export_lines(examples: Mapping[str, ScoredExample], condition: Condition) -> Iterator[str]:
    tag = _escape(condition.value)
    held = None  # (episode, escaped text, escaped ends) last sliced
    for ex_id in sorted(examples):
        example = examples[ex_id]
        episode, cut = example.episode, example.cut_index
        if held is None or held[0] is not episode:
            text, ends, _, digests = _rendering(episode, condition)
            held = (episode, *_escaped_rendering(text, ends, digests))
        _, escaped, escaped_ends = held
        # The prompt is its rendering's prefix up to the cut, then the cue.
        yield (
            f'{{"example_id": {_escape(example.id)}, '
            f'"condition": {tag}, '
            f'"prompt": "{escaped[: escaped_ends[cut]]}{_ESCAPED_CUE}", '
            f'"target": {_escape(episode.turns[cut].text)}}}\n'
        )


def export_rendered_jsonl(
    path: str | Path, examples: Mapping[str, ScoredExample], condition: Condition
) -> None:
    """Write the rendered-prompt export of the examples under one condition,
    in id order: for each, the line json.dumps gives for {"example_id",
    "condition", "prompt", "target"}, where the prompt is render_prompt's
    text and the target is the text of the api_request turn at the cut
    (every cut sits at one, as extract_examples builds them). The
    JSON-escaped text of one episode's rendering at a time is held while
    its prompts are written."""
    write_lines(path, _export_lines(examples, condition))
