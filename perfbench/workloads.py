"""Workload definitions and the seeded input generator.

Every input is a pure function of the workload and the seed: the corpus
comes from `fixtures.trace_heavy_corpus_records` as it stands, and each
planted completion is drawn with a seeded RNG from five shapes, one per
error category, so the expected category of every score record is known
before the program runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from toolstream.calls import ApiCall, render_call
from toolstream.corpus import StreamSpec, load_corpus, partition_blocks
from toolstream.fixtures import trace_heavy_corpus_records, write_jsonl_records
from toolstream.genclient import CompletionRecord, write_completions_jsonl
from toolstream.transform import Condition, render_prompt

T = 4
N_APIS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "import" replays recorded files; "endpoint" generates live
    n_episodes: int
    calls_per_episode: int
    stages: tuple[int, ...]
    reruns: int  # run_report calls repeated on the same inputs after each fresh one


WORKLOADS = {
    w.name: w
    for w in (
        # Full learning-curve replay: every stage 0..T under both conditions.
        # Short contexts, so parsing and scoring do most of the work.
        Workload("replay-stages", "import", 150, 5, (0, 1, 2, 3, 4), reruns=1),
        # About as many examples as replay-stages, but 60 calls per episode:
        # 13x the context turns, final stage only. Rendering, hashing and
        # memory dominate; a score-path change should not move it.
        Workload("replay-long-trace", "import", 13, 60, (4,), reruns=1),
        # Live generation against the out-of-process mock, stages 0 and T.
        # Cold calls write the completion cache, warm reruns read it.
        Workload("live-generate", "endpoint", 10, 5, (0, 4), reruns=3),
    )
}

# Planted completion mix, in scoring.CATEGORY_ORDER order.
CATEGORY_WEIGHTS = (
    ("exact_full_call", 40),
    ("correct_api_some_params", 15),
    ("correct_api_wrong_params", 10),
    ("wrong_api", 15),
    ("malformed_no_call", 20),
)

_PREFIXES = ("", "", "Calling the tool now: ", "Sure. ")
_MALFORMED = (
    "I could not find a suitable tool for this request.",
    "",
    "[{name}({key}='{value}']",
    "[{name}({key}='{value}",
    "[{name} pending]",
)


def _planted_text(rng: random.Random, category: str, expected: ApiCall, other_api: str) -> str:
    (k1, v1), (k2, v2) = expected.params
    if category == "malformed_no_call":
        return rng.choice(_MALFORMED).format(name=expected.name, key=k1, value=v1)
    if category == "exact_full_call":
        call = expected
    elif category == "correct_api_some_params":
        call = ApiCall(expected.name, ((k1, v1), (k2, f"x_{v2}")))
    elif category == "correct_api_wrong_params":
        call = ApiCall(expected.name, ((k1, f"x_{v1}"), (k2, f"x_{v2}")))
    else:
        call = ApiCall(other_api, expected.params)
    if rng.random() < 0.25:
        text = "[{}({})]".format(call.name, ", ".join(f'{k}="{v}"' for k, v in call.params))
    else:
        text = render_call(call)
    return rng.choice(_PREFIXES) + text


@dataclass
class Inputs:
    corpus: Path
    stream: StreamSpec
    import_paths: list[Path]
    replies: Path | None
    # (condition, stage, example_id) -> planted category value
    planted: dict[tuple[str, int, str], str]


def write_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    """Write the corpus and the planted completions (files for import mode,
    a prompt-hash -> reply map for the mock endpoint) under `work`."""
    work.mkdir(parents=True, exist_ok=True)
    corpus = work / "corpus.jsonl"
    write_jsonl_records(
        corpus,
        trace_heavy_corpus_records(
            workload.n_episodes, workload.calls_per_episode, n_apis=N_APIS, seed=seed
        ),
    )
    stream = StreamSpec(T=T, seed=seed)
    blocks = partition_blocks(load_corpus(corpus), stream.T, stream.seed)
    examples = sorted((ex for b in blocks for ex in b.examples), key=lambda ex: ex.id)
    api_names = sorted({ex.expected.name for ex in examples})
    categories = [c for c, _ in CATEGORY_WEIGHTS]
    weights = [w for _, w in CATEGORY_WEIGHTS]
    rng = random.Random(f"perfbench:{workload.name}:{seed}")

    planted: dict[tuple[str, int, str], str] = {}
    import_paths: list[Path] = []
    replies: dict[str, tuple[str, str]] = {}  # prompt hash -> (category, text)
    for condition in (Condition.A_STRIPPED, Condition.B_TRAJECTORY):
        tag = condition.value
        records: list[CompletionRecord] = []
        for ex in examples:
            h = render_prompt(ex, condition).prompt_hash
            other = api_names[(api_names.index(ex.expected.name) + 1) % len(api_names)]
            if workload.mode == "endpoint":
                # The endpoint sees only the prompt, so one reply serves every
                # stage, and both conditions when they render the same text
                # (first cuts, which have no trace turns to strip).
                if h not in replies:
                    category = rng.choices(categories, weights)[0]
                    replies[h] = (category, _planted_text(rng, category, ex.expected, other))
                for stage in workload.stages:
                    planted[(tag, stage, ex.id)] = replies[h][0]
                continue
            for stage in workload.stages:
                category = rng.choices(categories, weights)[0]
                text = _planted_text(rng, category, ex.expected, other)
                planted[(tag, stage, ex.id)] = category
                records.append(CompletionRecord(ex.id, tag, stage, h, text, source="imported"))
        if records:
            path = work / f"completions_{tag}.jsonl"
            write_completions_jsonl(path, records)
            import_paths.append(path)

    replies_path = None
    if workload.mode == "endpoint":
        replies_path = work / "replies.json"
        replies_path.write_text(
            json.dumps({h: text for h, (_, text) in replies.items()}), encoding="utf-8"
        )
    return Inputs(
        corpus=corpus,
        stream=stream,
        import_paths=import_paths,
        replies=replies_path,
        planted=planted,
    )


def check_scores(out_dir: Path, planted: dict[tuple[str, int, str], str]) -> int:
    """Count planted (condition, stage, example) keys whose score record is
    missing, duplicated or of another category, plus records never planted."""
    seen: dict[tuple[str, int, str], list[str]] = {}
    for tag in sorted({key[0] for key in planted}):
        path = out_dir / f"scores_{tag}.jsonl"
        if not path.exists():
            continue
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                raw = json.loads(line)
                key = (tag, int(raw["stage"]), raw["example_id"])
                seen.setdefault(key, []).append(raw["category"])
    bad = sum(1 for key, cat in planted.items() if seen.get(key) != [cat])
    return bad + sum(1 for key in seen if key not in planted)
