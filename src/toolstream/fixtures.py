"""Deterministic synthetic fixtures.

Two builders live here:

- the reference fixture: a 440-example corpus in four disjoint-API blocks
  (sizes 126/107/104/103 after partitioning) plus recorded final-stage
  completions for both conditions whose per-block error-category mix is
  fixed, so replaying them reproduces known accuracy tables exactly;
- a configurable trace-heavy corpus used to exercise the two context
  conditions, where later calls in each episode see a full
  request/response history.

Everything here is a pure function of its seeds; no wall-clock state.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .calls import ApiCall, render_call
from .corpus import DomainBlock, load_corpus, partition_blocks
from .files import write_jsonl_records
from .genclient import CompletionRecord, write_completions_jsonl
from .scoring import CATEGORY_ORDER, ErrorCategory
from .transform import Condition, render_prompt

REFERENCE_T = 4
REFERENCE_SEED = 42
REFERENCE_FINAL_STAGE = 4

# (api name, scored-example count, parameter keys). Group sizes are all
# distinct, so greedy partitioning maps them to blocks deterministically:
# descending size onto the lowest-loaded block -> 126, 107, 104, 103.
REFERENCE_APIS: tuple[tuple[str, int, tuple[str, str]], ...] = (
    ("QueryBalance", 126, ("account", "currency")),
    ("BookFlight", 107, ("origin", "destination")),
    ("SearchMuseum", 104, ("city", "topic")),
    ("AddMeeting", 103, ("title", "slot")),
)

# Per-condition error-category counts keyed by block size, in taxonomy
# order: (exact, correct-API-some-params, correct-API-wrong-params,
# wrong-API, malformed/no-call). Each tuple sums to its block size.
REFERENCE_CATEGORY_MIX: dict[str, dict[int, tuple[int, int, int, int, int]]] = {
    "A": {
        126: (45, 20, 16, 32, 13),
        104: (45, 14, 6, 28, 11),
        103: (33, 19, 10, 29, 12),
        107: (49, 21, 15, 13, 9),
    },
    "B": {
        126: (73, 12, 8, 4, 29),
        104: (64, 16, 6, 2, 16),
        103: (46, 17, 6, 4, 30),
        107: (68, 9, 2, 2, 26),
    },
}

_USER_OPENERS = (
    "Can you handle this for me?",
    "I need a hand with the next step.",
    "Please take care of the following.",
    "One more thing to sort out.",
)
_ASSISTANT_ACKS = (
    "Done, here is the result.",
    "That worked, anything else?",
    "All set.",
    "Finished with that request.",
)


def _call_turn(api: str, keys: tuple[str, str], episode_no: int, turn_idx: int) -> dict:
    call = ApiCall(
        api,
        (
            (keys[0], f"{keys[0]}_{episode_no:04d}_{turn_idx}"),
            (keys[1], f"{keys[1]}_{episode_no:04d}_{turn_idx}"),
        ),
    )
    return {"role": "api_request", "text": render_call(call)}


def _response_turn(api: str, episode_no: int, turn_idx: int) -> dict:
    payload = {"status": "ok", "ref": f"{api.lower()}-{episode_no:04d}-{turn_idx}"}
    return {"role": "api_response", "text": json.dumps(payload)}


def reference_corpus_records() -> list[dict]:
    """Episode records (JSON-able) for the reference corpus, 440 calls total."""
    records: list[dict] = []
    for api, size, keys in REFERENCE_APIS:
        full_episodes, leftover = divmod(size, 2)
        for ep in range(full_episodes + leftover):
            ep_id = f"{api.lower()}_{ep:04d}"
            calls = 1 if (leftover and ep == full_episodes) else 2
            turns: list[dict] = []
            for c in range(calls):
                turns.append({"role": "user", "text": _USER_OPENERS[(ep + c) % len(_USER_OPENERS)]})
                turn_idx = len(turns)
                turns.append(_call_turn(api, keys, ep, turn_idx))
                turns.append(_response_turn(api, ep, turn_idx))
                turns.append(
                    {"role": "assistant", "text": _ASSISTANT_ACKS[(ep + c) % len(_ASSISTANT_ACKS)]}
                )
            records.append({"id": ep_id, "turns": turns})
    return records


def _malformed_text(api: str, key: str, value: str, variant: int) -> str:
    variants = (
        "I could not find a suitable tool for this request.",
        "",
        f"[{api}({key}='{value}']",
        f"[{api}({key}='{value}",
        f"[{api} pending]",
    )
    return variants[variant % len(variants)]


def _completion_text(
    category: ErrorCategory,
    expected: ApiCall,
    other_api: str,
    variant: int,
) -> str:
    (k1, v1), (k2, v2) = expected.params
    if category is ErrorCategory.EXACT_FULL_CALL:
        return render_call(expected)
    if category is ErrorCategory.CORRECT_API_SOME_PARAMS:
        return render_call(ApiCall(expected.name, ((k1, v1), (k2, f"x_{v2}"))))
    if category is ErrorCategory.CORRECT_API_WRONG_PARAMS:
        return render_call(ApiCall(expected.name, ((k1, f"x_{v1}"), (k2, f"x_{v2}"))))
    if category is ErrorCategory.WRONG_API:
        return render_call(ApiCall(other_api, ((k1, v1), (k2, v2))))
    return _malformed_text(expected.name, k1, v1, variant)


def build_reference_completions(
    blocks: list[DomainBlock], condition: Condition
) -> list[CompletionRecord]:
    """Final-stage completion records realizing the fixed category mix."""
    mix = REFERENCE_CATEGORY_MIX[condition.value]
    api_by_block = {b.block_id: next(iter(b.api_names)) for b in blocks}
    records: list[CompletionRecord] = []
    for block in sorted(blocks, key=lambda b: b.block_id):
        counts = mix[len(block.examples)]
        categories: list[ErrorCategory] = []
        for category, count in zip(CATEGORY_ORDER, counts):
            categories.extend([category] * count)
        random.Random(f"{condition.value}:{block.block_id}").shuffle(categories)
        other_api = api_by_block[(block.block_id % len(blocks)) + 1]
        for idx, (example, category) in enumerate(zip(block.examples, categories)):
            prompt = render_prompt(example, condition)
            records.append(
                CompletionRecord(
                    example_id=example.id,
                    condition=condition.value,
                    stage=REFERENCE_FINAL_STAGE,
                    prompt_hash=prompt.prompt_hash,
                    text=_completion_text(category, example.expected, other_api, idx),
                    source="imported",
                )
            )
    return records


def write_reference_fixture(out_dir: str | Path) -> dict[str, Path]:
    """Write corpus.jsonl plus completions_A/B.jsonl; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / "corpus.jsonl"
    write_jsonl_records(corpus_path, reference_corpus_records())
    episodes = load_corpus(corpus_path)
    blocks = partition_blocks(episodes, REFERENCE_T, REFERENCE_SEED)
    paths = {"corpus": corpus_path}
    for condition in (Condition.A_STRIPPED, Condition.B_TRAJECTORY):
        records = build_reference_completions(blocks, condition)
        path = out / f"completions_{condition.value}.jsonl"
        write_completions_jsonl(path, records)
        paths[f"completions_{condition.value}"] = path
    return paths


def trace_heavy_corpus_records(
    n_episodes: int = 100,
    calls_per_episode: int = 3,
    n_apis: int = 5,
    seed: int = 7,
) -> list[dict]:
    """Synthetic corpus where every call after the first in an episode sees
    at least one prior request/response pair in its context."""
    rng = random.Random(seed)
    apis = [
        (f"DemoTool{i}", (f"arg{i}a", f"arg{i}b"))
        for i in range(n_apis)
    ]
    records: list[dict] = []
    for ep in range(n_episodes):
        api, keys = apis[ep % n_apis]
        turns: list[dict] = [
            {"role": "user", "text": f"Session {ep}: work through my checklist."}
        ]
        for c in range(calls_per_episode):
            turn_idx = len(turns)
            call = ApiCall(
                api,
                (
                    (keys[0], f"v{ep}_{c}_{rng.randrange(10_000)}"),
                    (keys[1], f"w{ep}_{c}_{rng.randrange(10_000)}"),
                ),
            )
            turns.append({"role": "api_request", "text": render_call(call)})
            turns.append(
                {"role": "api_response", "text": json.dumps({"ok": True, "step": c})}
            )
            turns.append({"role": "assistant", "text": f"Step {c} finished."})
            if c + 1 < calls_per_episode:
                turns.append({"role": "user", "text": f"Great, continue with step {c + 1}."})
        records.append({"id": f"trace_{ep:04d}", "turns": turns})
    return records
