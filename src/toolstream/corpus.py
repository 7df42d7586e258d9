"""Dialogue corpus loading, domain-block partitioning, and example extraction.

Corpora are JSONL files, one episode per line:

    {"id": str, "turns": [{"role": "user"|"assistant"|"api_request"|"api_response",
                           "text": str}, ...]}

Every api_request turn must contain exactly one parseable bracketed call;
its text is canonicalized at ingestion so downstream rendering is stable.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .calls import ApiCall, ParsedCall, parse_first_call, render_call
from .files import check_utf8, integer, read_json, read_jsonl, string, write_json


class CorpusError(Exception):
    pass


class IngestionError(CorpusError):
    pass


class PartitionError(CorpusError):
    pass


class Role(Enum):
    """Turn roles; enum values match the JSONL wire names."""

    USER = "user"
    ASSISTANT_TEXT = "assistant"
    API_REQUEST = "api_request"
    API_RESPONSE = "api_response"

    # Members are singletons, so identity hashing is exact and runs no Python.
    __hash__ = object.__hash__


# Wire name -> role: a dict lookup, where calling Role(...) per turn is
# several times slower.
_ROLES = {role.value: role for role in Role}


class Turn(NamedTuple):
    role: Role
    text: str
    call: ApiCall | None = None


class Episode:
    __slots__ = ("id", "turns", "renderings")

    def __init__(self, id: str, turns: list[Turn]):
        self.id = id
        self.turns = turns
        # Condition -> transform's rendering of these turns (text, cut
        # offsets, token counts, prompt digests), built on first use, so it
        # lives and dies with the episode.
        self.renderings: dict = {}


class ScoredExample:
    """A next-call prediction target: the turns of an episode before one
    api_request turn, which is at cut_index. assign_blocks sets block_id."""

    __slots__ = ("id", "episode", "cut_index", "expected", "block_id")

    def __init__(
        self, id: str, episode: Episode, cut_index: int, expected: ApiCall,
        block_id: int | None = None,
    ):
        self.id = id
        self.episode = episode
        self.cut_index = cut_index
        self.expected = expected
        self.block_id = block_id

    # Read by nothing in the package; perfbench's example counts still do.
    @property
    def context(self) -> list[Turn]:
        return self.episode.turns[: self.cut_index]


class DomainBlock(NamedTuple):
    block_id: int
    api_names: frozenset[str]
    examples: list[ScoredExample]


class StreamSpec:
    """Shape of a domain-block stream: block count, order, seeds, sampling."""

    __slots__ = ("T", "block_order", "seed", "sample_size")

    def __init__(
        self, T: int, block_order: Sequence[int] = (), seed: int = 42,
        sample_size: int | None = None,
    ):
        if T < 2:
            raise ValueError("a stream needs at least 2 blocks")
        block_order = tuple(block_order or range(1, T + 1))
        if sorted(block_order) != list(range(1, T + 1)):
            raise ValueError(f"block_order must be a permutation of 1..{T}")
        if sample_size is not None and sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        self.T = T
        self.block_order = block_order
        self.seed = seed
        self.sample_size = sample_size


def load_corpus(path: str | Path) -> list[Episode]:
    """Load all episodes from a JSONL corpus file, preserving order."""
    seen_ids: set[str] = set()

    def episode(record: object) -> Episode:
        ep = _episode_from_record(record)
        if ep.id in seen_ids:
            raise ValueError(f"duplicate episode id {ep.id!r}")
        seen_ids.add(ep.id)
        return ep

    return read_jsonl(path, episode, IngestionError)


def _episode_from_record(record: object) -> Episode:
    if not isinstance(record, dict):
        raise ValueError("episode must be a JSON object")
    ep_id = record.get("id")
    turns_raw = record.get("turns")
    if not isinstance(ep_id, str) or not ep_id:
        raise ValueError("missing or invalid 'id'")
    if not isinstance(turns_raw, list):
        raise ValueError("missing or invalid 'turns'")
    turns: list[Turn] = []
    request = Role.API_REQUEST
    for idx, turn_raw in enumerate(turns_raw):
        if not isinstance(turn_raw, dict):
            raise ValueError(f"turn {idx} must be a JSON object")
        role_raw = turn_raw.get("role")
        text = turn_raw.get("text")
        try:
            role = _ROLES[role_raw]
        except (KeyError, TypeError):  # TypeError: an unhashable role
            raise ValueError(f"turn {idx} has unknown role {role_raw!r}") from None
        if not isinstance(text, str):
            raise ValueError(f"turn {idx} has missing or non-string text")
        if not text.isascii():
            check_utf8(text, f"turn {idx} text")
        turns.append(_request_turn(text, ep_id, idx) if role is request else Turn(role, text))
    return Episode(id=ep_id, turns=turns)


def _request_turn(text: str, ep_id: str, idx: int) -> Turn:
    parsed = parse_first_call(text)
    if not isinstance(parsed, ParsedCall):
        raise ValueError(
            f"episode {ep_id!r} turn {idx}: api_request text "
            f"contains no parseable call ({parsed.reason.value})"
        )
    trailing = parse_first_call(text[parsed.span[1]:])
    if isinstance(trailing, ParsedCall):
        raise ValueError(
            f"episode {ep_id!r} turn {idx}: api_request text "
            "contains more than one call"
        )
    # Store the canonical rendering so the turn text and the parsed
    # call can never drift apart.
    return Turn(Role.API_REQUEST, render_call(parsed.call), parsed.call)


def extract_examples(episode: Episode) -> list[ScoredExample]:
    """One scored example per api_request turn; context is all prior turns."""
    examples: list[ScoredExample] = []
    request = Role.API_REQUEST
    for idx, turn in enumerate(episode.turns):
        if turn.role is not request:
            continue
        assert turn.call is not None
        examples.append(
            ScoredExample(
                id=f"{episode.id}:{idx}",
                episode=episode,
                cut_index=idx,
                expected=turn.call,
            )
        )
    return examples


def partition_blocks(episodes: Sequence[Episode], T: int, seed: int) -> list[DomainBlock]:
    """Split scored examples into T blocks with pairwise-disjoint API names.

    API-name groups are bin-packed greedily: groups in descending size
    order, each placed on the currently smallest block. Groups of equal
    size are ordered by a seeded shuffle; block-load ties go to the
    lowest block id.
    """
    import random

    if T < 2:
        raise PartitionError("T must be >= 2")
    examples = [ex for episode in episodes for ex in extract_examples(episode)]
    groups = Counter(ex.expected.name for ex in examples)
    if len(groups) < T:
        raise PartitionError(
            f"need at least {T} distinct API names to build {T} blocks, "
            f"found {len(groups)}"
        )
    names = sorted(groups)
    random.Random(seed).shuffle(names)
    names.sort(key=lambda name: -groups[name])  # stable: seeded order breaks ties

    loads = [0] * T
    block_of_name: dict[str, int] = {}
    for name in names:
        target = min(range(T), key=lambda i: (loads[i], i))
        block_of_name[name] = target + 1
        loads[target] += groups[name]
    return assign_blocks(
        examples, {ex.id: block_of_name[ex.expected.name] for ex in examples}
    )


def select_examples(
    blocks: Sequence[DomainBlock], sample_size: int | None, seed: int
) -> dict[str, ScoredExample]:
    """The evaluation examples by id: every block example, or per block a
    seeded uniform sample of min(sample_size, block size) in corpus order."""
    if sample_size is None:
        selected = [ex for block in blocks for ex in block.examples]
    elif sample_size < 1:
        raise ValueError("sample size must be >= 1")
    else:
        import random

        selected = []
        for block in blocks:
            key = hashlib.sha256(f"{seed}:{block.block_id}:{sample_size}".encode()).digest()
            rng = random.Random(int.from_bytes(key[:8], "big"))
            size = len(block.examples)
            picked = sorted(rng.sample(range(size), min(sample_size, size)))
            selected += [block.examples[i] for i in picked]
    return {ex.id: ex for ex in selected}


def assign_blocks(
    examples: Iterable[ScoredExample], assignment: Mapping[str, int]
) -> list[DomainBlock]:
    """Group examples into domain blocks by an example_id -> block_id
    assignment (as partition_blocks computes it, or as read from
    blocks.json), setting each example's block_id. Examples keep their
    order within a block; examples the assignment omits are left out."""
    members: dict[int, list[ScoredExample]] = {}
    for example in examples:
        block_id = assignment.get(example.id)
        if block_id is not None:
            example.block_id = block_id
            members.setdefault(block_id, []).append(example)
    return [
        DomainBlock(
            block_id=block_id,
            api_names=frozenset(ex.expected.name for ex in examples),
            examples=examples,
        )
        for block_id, examples in sorted(members.items())
    ]


def write_blocks_json(path: str | Path, blocks: Sequence[DomainBlock]) -> None:
    write_json(path, {
        "T": len(blocks),
        "blocks": [
            {
                "block_id": b.block_id,
                "api_names": sorted(b.api_names),
                "example_ids": [ex.id for ex in b.examples],
            }
            for b in sorted(blocks, key=lambda b: b.block_id)
        ],
    })


def read_blocks_json(path: str | Path) -> tuple[int, dict[str, int]]:
    """Return (T, example_id -> block_id) from a blocks.json file. T and
    the block ids must be integers, and each example is listed once."""
    return read_json(path, _block_assignment, CorpusError)


def _block_assignment(payload: object) -> tuple[int, dict[str, int]]:
    assignment: dict[str, int] = {}
    for block in payload["blocks"]:
        block_id = integer(block["block_id"], "block_id")
        for example_id in block["example_ids"]:
            example_id = string(example_id, "example_ids entry")
            listed = assignment.setdefault(example_id, block_id)
            if listed != block_id:
                raise ValueError(
                    f"example {example_id!r} is listed in block {listed} and in block {block_id}"
                )
    return integer(payload["T"], "T"), assignment
