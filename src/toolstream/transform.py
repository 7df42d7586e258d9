"""Prompt rendering for the two context conditions, plus length accounting.

Condition A strips prior API-Request/API-Response lines from the context
before rendering; Condition B keeps the full action-observation trace.
Both renderings end with the same next-action cue line.

Each episode is rendered once per condition, as one text in which every
kept turn is a line ended by a newline. An example's prompt is the prefix
of that text up to its cut, then the cue. Its whitespace-token count is
the sum of the counts of those lines plus the cue's: no token spans a
newline, so the sum equals len(prompt.split()).
"""

from __future__ import annotations

import hashlib
import subprocess
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Episode, Role, ScoredExample
from .files import read_jsonl, write_jsonl_records

__all__ = [
    "Condition",
    "RenderedPrompt",
    "StatsError",
    "PREFIXES",
    "CUE",
    "KEPT_ROLES",
    "render_prompt",
    "context_stats",
    "export_rendered_jsonl",
    "read_rendered_jsonl",
]


class StatsError(Exception):
    pass


class Condition(Enum):
    """The two context conditions; enum values are the serialized tags."""

    A_STRIPPED = "A"
    B_TRAJECTORY = "B"


# Line prefix for each turn role, and the cue line that ends every prompt.
PREFIXES: dict[Role, str] = {
    Role.USER: "User: ",
    Role.ASSISTANT_TEXT: "Assistant: ",
    Role.API_REQUEST: "API-Request: ",
    Role.API_RESPONSE: "API-Response: ",
}
CUE = "API-Request:"
_CUE_TOKENS = len(CUE.split())

# The roles whose turns each condition keeps: A strips the action-observation
# trace, B keeps every turn.
KEPT_ROLES: dict[Condition, frozenset[Role]] = {
    Condition.A_STRIPPED: frozenset({Role.USER, Role.ASSISTANT_TEXT}),
    Condition.B_TRAJECTORY: frozenset(Role),
}


@dataclass
class RenderedPrompt:
    example_id: str
    condition: Condition
    text: str
    # len(text.split()), as render_prompt counts it; None on a prompt read
    # back from a file.
    ws_token: int | None = None

    @property
    def prompt_hash(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _rendering(episode: Episode, condition: Condition) -> tuple[str, list[int], list[int]]:
    """The episode's kept turns as one text of newline-ended lines, with the end
    offset of the lines before each cut index 0..len(turns) and their
    whitespace-token count. Built on first use and kept on the episode."""
    rendering = episode.renderings.get(condition)
    if rendering is None:
        kept = KEPT_ROLES[condition]
        lines: list[str] = []
        ends, tokens = [0], [0]
        end = count = 0
        for turn in episode.turns:
            if turn.role in kept:
                line = PREFIXES[turn.role] + turn.text + "\n"
                lines.append(line)
                end += len(line)
                count += len(line.split())
            ends.append(end)
            tokens.append(count)
        rendering = episode.renderings[condition] = ("".join(lines), ends, tokens)
    return rendering


def render_prompt(example: ScoredExample, condition: Condition) -> RenderedPrompt:
    """Render one example's context under the given condition."""
    text, ends, tokens = _rendering(example.episode, condition)
    cut = example.cut_index
    return RenderedPrompt(
        example.id, condition, text[: ends[cut]] + CUE, tokens[cut] + _CUE_TOKENS
    )


def _run_tokenizer(command: Sequence[str], text: str) -> int:
    try:
        proc = subprocess.run(
            list(command),
            input=text.encode("utf-8"),
            capture_output=True,
            check=True,
        )
        return int(proc.stdout.decode("utf-8").strip())
    except (OSError, subprocess.CalledProcessError, ValueError) as exc:
        raise StatsError(
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
        bucket["char"] += len(prompt.text)
        bucket["ws_token"] += prompt.ws_token
        if tokenizer_cmd is not None:
            bucket["ext_token"] = bucket.get("ext_token", 0) + _run_tokenizer(
                tokenizer_cmd, prompt.text
            )
    return totals


def read_rendered_jsonl(path: str | Path) -> list[RenderedPrompt]:
    """Read a rendered-prompt export back."""
    def prompt(raw) -> RenderedPrompt:
        return RenderedPrompt(str(raw["example_id"]), Condition(raw["condition"]), str(raw["prompt"]))

    return read_jsonl(path, prompt, ValueError)


def export_rendered_jsonl(
    path: str | Path,
    prompts: Sequence[RenderedPrompt],
    targets_by_id: Mapping[str, str],
) -> None:
    """Write the rendered-prompt export, one JSON object per prompt."""
    write_jsonl_records(path, (
        {
            "example_id": prompt.example_id,
            "condition": prompt.condition.value,
            "prompt": prompt.text,
            "target": targets_by_id[prompt.example_id],
        }
        for prompt in prompts
    ))
