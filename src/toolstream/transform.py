"""Prompt rendering for the two context conditions, plus length accounting.

Condition A strips prior API-Request/API-Response lines from the context
before rendering; Condition B keeps the full action-observation trace.
Both renderings end with the same next-action cue line.
"""

from __future__ import annotations

import hashlib
import subprocess
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Role, ScoredExample, Turn
from .files import read_jsonl, write_jsonl_records

__all__ = [
    "Condition",
    "RenderedPrompt",
    "StatsError",
    "PREFIXES",
    "CUE",
    "strip_trajectory",
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


@dataclass
class RenderedPrompt:
    example_id: str
    condition: Condition
    text: str

    @property
    def prompt_hash(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def strip_trajectory(context: Sequence[Turn]) -> list[Turn]:
    """Drop api_request/api_response turns, keeping user and assistant text."""
    return [t for t in context if t.role in (Role.USER, Role.ASSISTANT_TEXT)]


def render_prompt(example: ScoredExample, condition: Condition) -> RenderedPrompt:
    """Render one example's context under the given condition."""
    if condition is Condition.A_STRIPPED:
        turns = strip_trajectory(example.context)
    else:
        turns = example.context
    lines = [PREFIXES[t.role] + t.text for t in turns]
    lines.append(CUE)
    return RenderedPrompt(example_id=example.id, condition=condition, text="\n".join(lines))


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
    external-tokenizer counts. External counts appear only when a
    tokenizer command is configured."""
    totals: dict[str, dict[str, int]] = {}
    for prompt in prompts:
        tag = prompt.condition.value
        bucket = totals.setdefault(tag, {"char": 0, "ws_token": 0})
        bucket["char"] += len(prompt.text)
        bucket["ws_token"] += len(prompt.text.split())
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
