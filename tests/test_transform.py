"""Condition rendering, trajectory stripping, and context-length stats."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import sys
import tracemalloc
from collections import Counter

import pytest

from toolstream.calls import ApiCall
from toolstream.corpus import (
    Episode, IngestionError, Role, ScoredExample, Turn, extract_examples, load_corpus
)
from _support import MULTISTAGE_T, load_episodes_from_records, write_multistage_inputs
from toolstream.fixtures import trace_heavy_corpus_records
from toolstream.transform import (
    CUE,
    PREFIXES,
    Condition,
    RenderedPrompt,
    context_stats,
    export_rendered_jsonl,
    read_rendered_jsonl,
    render_prompt,
)

CALL = ApiCall("F", (("x", "1"),))


def _turn(role: Role, text: str = "t") -> Turn:
    if role is Role.API_REQUEST:
        return Turn(role=role, text="[F(x='1')]", call=CALL)
    return Turn(role=role, text=text)


def _example(context: list[Turn], ex_id: str = "e:1") -> ScoredExample:
    """The example whose context is `context`, cut before one more call."""
    episode = Episode(id="e", turns=context + [_turn(Role.API_REQUEST)])
    return ScoredExample(id=ex_id, episode=episode, cut_index=len(context), expected=CALL)


class TestStripTrajectory:
    def test_trace_turns_removed(self):
        context = [
            _turn(Role.USER, "u"),
            _turn(Role.API_REQUEST),
            _turn(Role.API_RESPONSE, "r"),
            _turn(Role.ASSISTANT_TEXT, "a"),
        ]
        text = render_prompt(_example(context), Condition.A_STRIPPED).text
        assert text == "User: u\nAssistant: a\nAPI-Request:"

    def test_no_trace_is_identity(self):
        context = [_turn(Role.USER, "u"), _turn(Role.ASSISTANT_TEXT, "a")]
        text = render_prompt(_example(context), Condition.A_STRIPPED).text
        assert text == "User: u\nAssistant: a\nAPI-Request:"

    def test_only_trace_becomes_empty(self):
        context = [_turn(Role.API_REQUEST), _turn(Role.API_RESPONSE)]
        prompt = render_prompt(_example(context), Condition.A_STRIPPED)
        assert (prompt.text, prompt.ws_token) == (CUE, 1)


class TestRenderPrompt:
    def test_trajectory_prompt_is_longer(self):
        context = [
            _turn(Role.USER, "u"),
            _turn(Role.API_REQUEST),
            _turn(Role.API_RESPONSE, "payload"),
            _turn(Role.USER, "next"),
        ]
        example = _example(context)
        a = render_prompt(example, Condition.A_STRIPPED)
        b = render_prompt(example, Condition.B_TRAJECTORY)
        assert len(b.text) > len(a.text)
        assert len(b.text.split()) >= len(a.text.split())

    def test_no_trace_renders_identically(self):
        context = [_turn(Role.USER, "u"), _turn(Role.ASSISTANT_TEXT, "a")]
        example = _example(context)
        a = render_prompt(example, Condition.A_STRIPPED)
        b = render_prompt(example, Condition.B_TRAJECTORY)
        assert a.text == b.text

    def test_both_end_with_cue(self):
        example = _example([_turn(Role.USER, "u"), _turn(Role.API_REQUEST)])
        for condition in Condition:
            text = render_prompt(example, condition).text
            assert text.splitlines()[-1] == CUE

    def test_line_multiset_subset(self):
        context = [
            _turn(Role.USER, "u"),
            _turn(Role.API_REQUEST),
            _turn(Role.API_RESPONSE, "r"),
            _turn(Role.ASSISTANT_TEXT, "a"),
            _turn(Role.USER, "u"),
        ]
        example = _example(context)
        a_lines = Counter(render_prompt(example, Condition.A_STRIPPED).text.splitlines())
        b_lines = Counter(render_prompt(example, Condition.B_TRAJECTORY).text.splitlines())
        assert all(b_lines[line] >= count for line, count in a_lines.items())
        assert sum(b_lines.values()) > sum(a_lines.values())

    def test_stripped_prompt_has_no_trace_lines(self):
        context = [
            _turn(Role.USER, "u"),
            _turn(Role.API_REQUEST),
            _turn(Role.API_RESPONSE, "r"),
        ]
        text = render_prompt(_example(context), Condition.A_STRIPPED).text
        for line in text.splitlines()[:-1]:  # the cue line is expected
            assert not line.startswith(PREFIXES[Role.API_REQUEST])
            assert not line.startswith(PREFIXES[Role.API_RESPONSE])

    def test_rendering_is_deterministic(self):
        example = _example([_turn(Role.USER, "u"), _turn(Role.API_REQUEST)])
        first = render_prompt(example, Condition.B_TRAJECTORY)
        second = render_prompt(example, Condition.B_TRAJECTORY)
        assert first.text == second.text
        assert first.prompt_hash == second.prompt_hash


def _trace_heavy_prompts(tmp_path, n_episodes=50):
    episodes = load_episodes_from_records(
        trace_heavy_corpus_records(n_episodes=n_episodes), tmp_path
    )
    examples = [
        ex
        for ep in episodes
        for ex in extract_examples(ep)
        if any(t.role is Role.API_REQUEST for t in ex.context)
    ]
    pairs = [
        (
            render_prompt(ex, Condition.A_STRIPPED),
            render_prompt(ex, Condition.B_TRAJECTORY),
        )
        for ex in examples
    ]
    return examples, pairs


class TestContextStats:
    def test_empty(self):
        assert context_stats([]) == {}

    def test_token_arithmetic(self):
        prompts = [
            # "User: one two three\nAPI-Request:": 32 chars, 5 tokens
            render_prompt(_example([_turn(Role.USER, "one two three")]), Condition.A_STRIPPED),
            # "Assistant: a b c d e\nAPI-Request:": 33 chars, 7 tokens
            render_prompt(_example([_turn(Role.ASSISTANT_TEXT, "a b c d e")]), Condition.A_STRIPPED),
        ]
        stats = context_stats(prompts)
        assert stats == {"A": {"char": 65, "ws_token": 12}}

    def test_trace_heavy_totals_and_ratio(self, tmp_path):
        examples, pairs = _trace_heavy_prompts(tmp_path)
        assert len(examples) == 100  # 50 episodes x 2 trace-bearing calls
        stats = context_stats([p for pair in pairs for p in pair])
        assert stats["B"]["char"] >= stats["A"]["char"]
        assert stats["B"]["ws_token"] > stats["A"]["ws_token"]
        # independent recount of the whitespace-token totals
        recount_a = sum(len(re.findall(r"\S+", a.text)) for a, _ in pairs)
        recount_b = sum(len(re.findall(r"\S+", b.text)) for _, b in pairs)
        assert stats["A"]["ws_token"] == recount_a
        assert stats["B"]["ws_token"] == recount_b
        assert recount_b / recount_a > 1

    def test_external_tokenizer(self):
        prompts = [
            RenderedPrompt("a", Condition.A_STRIPPED, "one two three", ws_token=3),
            RenderedPrompt("b", Condition.B_TRAJECTORY, "a b", ws_token=2),
        ]
        cmd = [sys.executable, "-c", "import sys; print(len(sys.stdin.read().split()))"]
        stats = context_stats(prompts, tokenizer_cmd=cmd)
        assert stats["A"]["ext_token"] == 3
        assert stats["B"]["ext_token"] == 2

    def test_external_tokenizer_failure_names_command(self):
        prompts = [RenderedPrompt("a", Condition.A_STRIPPED, "x", ws_token=1)]
        cmd = [sys.executable, "-c", "import sys; sys.exit(3)"]
        with pytest.raises(IngestionError) as excinfo:
            context_stats(prompts, tokenizer_cmd=cmd)
        assert "sys.exit(3)" in str(excinfo.value)


class TestRenderedExport:
    def test_roundtrip(self, tmp_path):
        example = _example([_turn(Role.USER, "u"), _turn(Role.API_REQUEST)], ex_id="ep:9")
        for condition in Condition:
            path = tmp_path / f"prompts_{condition.value}.jsonl"
            export_rendered_jsonl(path, {"ep:9": example}, condition)
            (loaded,) = read_rendered_jsonl(path)
            prompt = render_prompt(example, condition)
            assert (loaded.example_id, loaded.condition, loaded.text) == (
                "ep:9", condition, prompt.text
            )
            assert loaded.prompt_hash == prompt.prompt_hash


# Characters of the random texts: str.split() whitespace of several kinds,
# including newline, NBSP and the \x1c separator, among word characters,
# and characters that JSON escapes: quote, backslash, non-ASCII and a
# character outside the BMP (escaped as a surrogate pair).
_PARITY_ALPHABET = "ab[]()='" + " \n\t\r\x1c\u00a0\u2028" + "é漢" + '"\\' + "\U0001f600"


def _reference_prompt(turns: list[Turn], condition: Condition) -> str:
    """The naive rendering: each kept turn's line, then the cue, joined by "\n"."""
    if condition is Condition.A_STRIPPED:
        turns = [t for t in turns if t.role in (Role.USER, Role.ASSISTANT_TEXT)]
    return "\n".join([PREFIXES[t.role] + t.text for t in turns] + [CUE])


def _random_episode(rng: random.Random, ep_id: str) -> Episode:
    turns = []
    for _ in range(rng.randrange(0, 12)):
        role = rng.choice(list(Role))
        length = rng.choice((0, 0, 1, 3, 12))
        text = "".join(rng.choice(_PARITY_ALPHABET) for _ in range(length))
        turns.append(Turn(role=role, text=text, call=CALL if role is Role.API_REQUEST else None))
    return Episode(id=ep_id, turns=turns)


def _parity_episodes() -> list[Episode]:
    rng = random.Random(2026)
    # The first episode opens with a request and a response, so condition
    # A keeps no turn at its cuts 1 and 2.
    return [
        Episode("lead", [_turn(Role.API_REQUEST), _turn(Role.API_RESPONSE, "r\n s"),
                         _turn(Role.USER, "")]),
    ] + [_random_episode(rng, f"ep{i}") for i in range(200)]


class TestRenderParity:
    def test_every_cut_matches_the_naive_rendering(self):
        episodes = _parity_episodes()
        assert {t.role for ep in episodes for t in ep.turns} == set(Role)
        assert any(t.text == "" for ep in episodes for t in ep.turns)
        assert any("\x1c" in t.text for ep in episodes for t in ep.turns)

        examples = [
            ScoredExample(id=f"{ep.id}:{cut}", episode=ep, cut_index=cut, expected=CALL)
            for ep in episodes
            for cut in range(len(ep.turns) + 1)
        ]
        prompts, references = [], {}
        for condition in Condition:
            for ex in examples:
                prompt = render_prompt(ex, condition)
                reference = _reference_prompt(ex.episode.turns[: ex.cut_index], condition)
                assert prompt.text == reference, (ex.id, condition)
                assert prompt.prompt_hash == hashlib.sha256(reference.encode("utf-8")).hexdigest()
                assert prompt.ws_token == len(reference.split()), (ex.id, condition)
                prompts.append(prompt)
                references.setdefault(condition.value, []).append(reference)
        assert render_prompt(examples[2], Condition.A_STRIPPED).text == CUE  # "lead:2"

        stats = context_stats(prompts)
        for tag, texts in references.items():
            assert stats[tag]["char"] == sum(len(t) for t in texts)
            assert stats[tag]["ws_token"] == sum(len(t.split()) for t in texts)

    def test_every_export_line_matches_json_dumps(self, tmp_path):
        # Every api_request cut, as extract_examples builds them; the target is
        # the request's text. Ids of the first kind keep each episode's examples
        # adjacent in id order; ids of the second interleave the episodes, so
        # the export escapes renderings again.
        episodes = _parity_episodes() + [
            Episode('q"\\é', [_turn(Role.USER, 'say "hi" \\ \x1c\u2028 \U0001f600'),
                              _turn(Role.API_REQUEST)]),
        ]
        cuts = [
            (ep, cut) for ep in episodes
            for cut, turn in enumerate(ep.turns) if turn.role is Role.API_REQUEST
        ]
        for name, ex_id in [("grouped", "{ep}:{cut}"), ("interleaved", "{cut}@{ep}")]:
            examples = {}
            for ep, cut in cuts:
                ex = ScoredExample(ex_id.format(ep=ep.id, cut=cut), ep, cut, expected=CALL)
                examples[ex.id] = ex
            for condition in Condition:
                path = tmp_path / f"prompts_{name}_{condition.value}.jsonl"
                export_rendered_jsonl(path, examples, condition)
                expected = "".join(
                    json.dumps({
                        "example_id": ex.id,
                        "condition": condition.value,
                        "prompt": _reference_prompt(ex.episode.turns[: ex.cut_index], condition),
                        "target": ex.episode.turns[ex.cut_index].text,
                    }) + "\n"
                    for ex in (examples[ex_id] for ex_id in sorted(examples))
                )
                assert path.read_bytes() == expected.encode("utf-8")

                # A prompt read back from the export hashes as the rendered one.
                loaded = read_rendered_jsonl(path)
                assert [p.prompt_hash for p in loaded] == [
                    render_prompt(examples[p.example_id], condition).prompt_hash for p in loaded
                ]


def _corpus_examples(corpus) -> list[ScoredExample]:
    return [ex for ep in load_corpus(corpus) for ex in extract_examples(ep)]


def _long_trace_examples(tmp_path) -> list[ScoredExample]:
    corpus, _ = write_multistage_inputs(
        tmp_path, n_episodes=6, calls_per_episode=40, stages=(MULTISTAGE_T,)
    )
    return _corpus_examples(corpus)


class TestPromptView:
    """render_prompt returns a view on its episode's rendering, cut on read."""

    def test_view_equals_the_eager_prompt(self, reference_paths, tmp_path):
        multistage, _ = write_multistage_inputs(tmp_path / "multistage")
        inputs = {
            "fixture": _corpus_examples(reference_paths["corpus"]),
            "multistage": _corpus_examples(multistage),
            "long-trace": _long_trace_examples(tmp_path / "long_trace"),
        }
        for name, examples in inputs.items():
            for condition in Condition:
                prompts = [render_prompt(ex, condition) for ex in examples]
                for ex, prompt in zip(examples, prompts):
                    text = _reference_prompt(ex.context, condition)
                    assert prompt.text == text, (name, ex.id, condition)
                    assert prompt.chars == len(text)
                    assert prompt.ws_token == len(text.split())
                    assert prompt.prompt_hash == hashlib.sha256(text.encode("utf-8")).hexdigest()
                stats = context_stats(prompts)[condition.value]
                assert stats["char"] == sum(len(p.text) for p in prompts), (name, condition)

    def test_prompts_do_not_copy_their_text(self, tmp_path):
        """Once an episode is rendered, its prompts cost a small object
        each, not a copy of their text."""
        examples = _long_trace_examples(tmp_path)
        for condition in Condition:
            for ex in examples:
                render_prompt(ex, condition)  # builds each episode's rendering
        tracemalloc.start()
        try:
            prompts = [render_prompt(ex, c) for c in Condition for ex in examples]
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        summed = sum(len(p.text) for p in prompts)
        assert summed > 1_000_000
        assert allocated < summed / 10
