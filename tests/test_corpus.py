"""Corpus ingestion, block partitioning, example extraction, and sampling."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from toolstream.corpus import (
    IngestionError,
    Role,
    StreamSpec,
    extract_examples,
    load_corpus,
    partition_blocks,
    select_examples,
    write_blocks_json,
)


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def _episode(ep_id, calls, api="Tool"):
    """Episode record with `calls` api_request/api_response pairs."""
    turns = [{"role": "user", "text": f"please run {ep_id}"}]
    for i in range(calls):
        turns.append({"role": "api_request", "text": f"[{api}(step='{ep_id}_{i}')]"})
        turns.append({"role": "api_response", "text": '{"ok": true}'})
    return {"id": ep_id, "turns": turns}


class TestLoadCorpus:
    def test_minimal_record(self, tmp_path):
        path = _write_jsonl(
            tmp_path / "c.jsonl",
            [{"id": "e1", "turns": [{"role": "user", "text": "hi"}]}],
        )
        episodes = load_corpus(path)
        assert len(episodes) == 1
        assert episodes[0].id == "e1"

    def test_api_request_with_prefix_text(self, tmp_path):
        path = _write_jsonl(
            tmp_path / "c.jsonl",
            [
                {
                    "id": "e1",
                    "turns": [
                        {"role": "user", "text": "weather please"},
                        {"role": "api_request", "text": "API-Request: [GetWeather(city='Paris')]"},
                    ],
                }
            ],
        )
        episode = load_corpus(path)[0]
        # text is canonicalized to the call itself at ingestion
        assert episode.turns[1].text == "[GetWeather(city='Paris')]"
        assert episode.turns[1].call.name == "GetWeather"
        assert episode.turns[1].call.params == (("city", "Paris"),)

    def test_bad_json_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"id": "e1", "turns": [{"role": "user", "text": "a"}]})
        good3 = json.dumps({"id": "e3", "turns": [{"role": "user", "text": "b"}]})
        path.write_text(f"{good}\n{{broken\n{good3}\n", encoding="utf-8")
        with pytest.raises(IngestionError) as excinfo:
            load_corpus(path)
        assert "line 2" in str(excinfo.value)

    def test_duplicate_id(self, tmp_path):
        record = {"id": "dup", "turns": [{"role": "user", "text": "a"}]}
        path = _write_jsonl(tmp_path / "c.jsonl", [record, record])
        with pytest.raises(IngestionError):
            load_corpus(path)

    def test_unparseable_api_request_rejected(self, tmp_path):
        path = _write_jsonl(
            tmp_path / "c.jsonl",
            [{"id": "e1", "turns": [{"role": "api_request", "text": "no call"}]}],
        )
        with pytest.raises(IngestionError):
            load_corpus(path)

    def test_two_calls_in_one_turn_rejected(self, tmp_path):
        path = _write_jsonl(
            tmp_path / "c.jsonl",
            [{"id": "e1", "turns": [{"role": "api_request", "text": "[A(x='1')] [B(y='2')]"}]}],
        )
        with pytest.raises(IngestionError):
            load_corpus(path)

    def test_unknown_role_rejected(self, tmp_path):
        path = _write_jsonl(
            tmp_path / "c.jsonl",
            [{"id": "e1", "turns": [{"role": "system", "text": "x"}]}],
        )
        with pytest.raises(IngestionError):
            load_corpus(path)

    def test_response_payload_captured(self, tmp_path):
        path = _write_jsonl(tmp_path / "c.jsonl", [_episode("e1", 1)])
        episode = load_corpus(path)[0]
        response = [t for t in episode.turns if t.role is Role.API_RESPONSE][0]
        assert response.text == '{"ok": true}'


class TestExtractExamples:
    def test_no_calls(self, tmp_path):
        path = _write_jsonl(
            tmp_path / "c.jsonl",
            [{"id": "e1", "turns": [{"role": "user", "text": "hi"}]}],
        )
        assert extract_examples(load_corpus(path)[0]) == []

    def test_cut_indices(self, tmp_path):
        record = {
            "id": "e1",
            "turns": [
                {"role": "user", "text": "a"},
                {"role": "api_request", "text": "[F(x='1')]"},
                {"role": "api_response", "text": "ok"},
                {"role": "assistant", "text": "done"},
                {"role": "api_request", "text": "[F(x='2')]"},
            ],
        }
        path = _write_jsonl(tmp_path / "c.jsonl", [record])
        examples = extract_examples(load_corpus(path)[0])
        assert [ex.cut_index for ex in examples] == [1, 4]
        assert [len(ex.context) for ex in examples] == [1, 4]
        assert examples[0].id == "e1:1"
        assert all(t.role is not Role.API_REQUEST or t.call for ex in examples for t in ex.context)
        # the target turn is never inside its own context
        assert all(len(ex.context) == ex.cut_index for ex in examples)

    def test_reference_corpus_totals(self, reference_blocks):
        episodes, blocks, _ = reference_blocks
        total = sum(len(extract_examples(ep)) for ep in episodes)
        assert total == 440
        assert sorted(len(b.examples) for b in blocks) == [103, 104, 107, 126]


class TestPartitionBlocks:
    def test_symmetric_case(self, tmp_path):
        records = []
        for api in ("A1", "B2", "C3", "D4"):
            for i in range(10):
                records.append(_episode(f"{api}_{i}", 1, api=api))
        episodes = load_corpus(_write_jsonl(tmp_path / "c.jsonl", records))
        blocks = partition_blocks(episodes, 4, seed=42)
        assert [len(b.examples) for b in blocks] == [10, 10, 10, 10]

    def test_greedy_packing_matches_bruteforce(self, tmp_path):
        sizes = {"Wide": 9, "Mid": 5, "Small": 4, "Tiny": 2}
        records = []
        for api, count in sizes.items():
            for i in range(count):
                records.append(_episode(f"{api}_{i}", 1, api=api))
        episodes = load_corpus(_write_jsonl(tmp_path / "c.jsonl", records))
        blocks = partition_blocks(episodes, 2, seed=0)
        block_sizes = [len(b.examples) for b in blocks]
        assert block_sizes == [11, 9]
        assert blocks[0].api_names == frozenset({"Wide", "Tiny"})
        assert blocks[1].api_names == frozenset({"Mid", "Small"})

        # independent oracle: enumerate every 2-partition, find the best
        # achievable max load, and confirm greedy attains it
        best = None
        for assignment in itertools.product((0, 1), repeat=len(sizes)):
            loads = [0, 0]
            for (api, count), side in zip(sizes.items(), assignment):
                loads[side] += count
            if 0 in [sum(1 for s in assignment if s == side) for side in (0, 1)]:
                continue
            worst = max(loads)
            best = worst if best is None else min(best, worst)
        assert max(block_sizes) == best

    def test_too_few_apis(self, tmp_path):
        records = [_episode(f"e{i}", 1, api=f"Api{i}") for i in range(4)]
        episodes = load_corpus(_write_jsonl(tmp_path / "c.jsonl", records))
        with pytest.raises(ValueError, match="need at least 5 distinct API names .* found 4"):
            partition_blocks(episodes, 5, seed=42)

    def test_t_below_two(self, tmp_path):
        episodes = load_corpus(_write_jsonl(tmp_path / "c.jsonl", [_episode("e", 1)]))
        with pytest.raises(ValueError, match="T must be >= 2"):
            partition_blocks(episodes, 1, seed=42)

    def test_disjointness_and_coverage(self, tmp_path):
        rng = random.Random(5)
        records = []
        for a in range(9):
            api = f"Tool{a}"
            for i in range(rng.randrange(1, 8)):
                records.append(_episode(f"{api}_{i}", rng.randrange(1, 3), api=api))
        episodes = load_corpus(_write_jsonl(tmp_path / "c.jsonl", records))
        blocks = partition_blocks(episodes, 3, seed=11)
        names = [b.api_names for b in blocks]
        for i, j in itertools.combinations(range(len(names)), 2):
            assert not names[i] & names[j]
        total_calls = sum(len(extract_examples(ep)) for ep in episodes)
        assert sum(len(b.examples) for b in blocks) == total_calls
        assert all(ex.expected.name in b.api_names for b in blocks for ex in b.examples)
        assert all(ex.block_id == b.block_id for b in blocks for ex in b.examples)

    def test_pipeline_is_deterministic(self, reference_paths, tmp_path):
        out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
        for out in (out1, out2):
            episodes = load_corpus(reference_paths["corpus"])
            write_blocks_json(out, partition_blocks(episodes, 4, seed=42))
        assert out1.read_bytes() == out2.read_bytes()


class TestSampleEvalSubset:
    # select_examples with a sample size draws each block's eval subset.
    def test_clamps_to_block_size(self, tmp_path):
        records = [_episode(f"e{i}", 1, api=f"Api{i % 2}") for i in range(10)]
        episodes = load_corpus(_write_jsonl(tmp_path / "c.jsonl", records))
        blocks = partition_blocks(episodes, 2, seed=42)
        subset = select_examples([blocks[0]], 32, seed=42)
        assert list(subset.values()) == blocks[0].examples

    def test_determinism_regression(self, reference_blocks):
        _, blocks, _ = reference_blocks
        block = next(b for b in blocks if len(b.examples) == 104)
        ids = list(select_examples([block], 32, seed=42))
        assert ids == list(select_examples([block], 32, seed=42))
        digest = hashlib.sha256(",".join(ids).encode()).hexdigest()
        assert digest == "30a8b97cb3c736785f078f481716c3615d8f1dcab240ad73dbadb7ac85bf6aa9"

    def test_different_seeds_differ(self, reference_blocks):
        _, blocks, _ = reference_blocks
        block = next(b for b in blocks if len(b.examples) == 104)
        first = list(select_examples([block], 32, seed=1))
        second = list(select_examples([block], 32, seed=2))
        assert first != second

    def test_invalid_sample_size(self, reference_blocks):
        _, blocks, _ = reference_blocks
        with pytest.raises(ValueError):
            select_examples([blocks[0]], 0, seed=42)


class TestStreamSpec:
    def test_identity_default_order(self):
        spec = StreamSpec(T=4)
        assert spec.block_order == (1, 2, 3, 4)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            StreamSpec(T=3, block_order=(1, 2, 2))

    def test_rejects_single_block(self):
        with pytest.raises(ValueError):
            StreamSpec(T=1)
