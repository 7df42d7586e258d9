"""Internal consistency and determinism of the bundled fixtures."""

from __future__ import annotations

from _support import load_episodes_from_records
from toolstream.clmetrics import _mean
from toolstream.corpus import extract_examples
from toolstream.fixtures import (
    REFERENCE_APIS,
    REFERENCE_CATEGORY_MIX,
    trace_heavy_corpus_records,
    write_reference_fixture,
)
from toolstream.genclient import import_completions
from toolstream.scoring import rates, score_completions
from toolstream.transform import Condition, render_prompt


def test_category_mix_sums_to_block_sizes():
    for condition, by_size in REFERENCE_CATEGORY_MIX.items():
        for size, counts in by_size.items():
            assert sum(counts) == size, (condition, size)
    assert {size for _, size, _ in REFERENCE_APIS} == set(REFERENCE_CATEGORY_MIX["A"])


def test_reference_block_identities(reference_blocks):
    _, blocks, _ = reference_blocks
    # one API per block; sizes keyed uniquely
    assert [len(b.api_names) for b in blocks] == [1, 1, 1, 1]
    assert {len(b.examples) for b in blocks} == {126, 107, 104, 103}


def test_fixture_files_are_deterministic(tmp_path):
    first = write_reference_fixture(tmp_path / "one")
    second = write_reference_fixture(tmp_path / "two")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes(), key


def test_completion_hashes_match_rendered_prompts(reference_paths, reference_blocks):
    _, _, index = reference_blocks
    for condition in Condition:
        records = import_completions([reference_paths[f"completions_{condition.value}"]])
        for record in records[:25]:
            prompt = render_prompt(index[record.example_id], condition)
            assert prompt.prompt_hash == record.prompt_hash


def test_per_block_category_counts_match_mix(reference_paths, reference_blocks):
    _, blocks, index = reference_blocks
    size_by_block = {b.block_id: len(b.examples) for b in blocks}
    for condition in ("A", "B"):
        records = import_completions([reference_paths[f"completions_{condition}"]])
        codes = score_completions(records, index, 4)[condition]
        assert sorted(codes.blocks) == sorted(size_by_block)
        for block_id in codes.blocks:
            expected = REFERENCE_CATEGORY_MIX[condition][size_by_block[block_id]]
            assert tuple(codes.counts(4, block_id)) == expected


def test_micro_exact_close_to_macro(reference_paths, reference_blocks):
    _, blocks, index = reference_blocks
    records = import_completions([reference_paths["completions_A"]])
    codes = score_completions(records, index, 4)["A"]
    finals = codes.counts(4)
    micro_exact = finals[0] / sum(finals)
    assert round(micro_exact, 4) == 0.3909
    macro_exact = _mean([rates(codes.counts(4, b))["exact"] for b in sorted(codes.blocks)])
    assert abs(micro_exact - macro_exact) * 100 < 1.5  # pooled vs unweighted gap


def test_trace_heavy_corpus_shape(tmp_path):
    episodes = load_episodes_from_records(
        trace_heavy_corpus_records(n_episodes=10, calls_per_episode=3), tmp_path
    )
    assert len(episodes) == 10
    examples = [ex for ep in episodes for ex in extract_examples(ep)]
    assert len(examples) == 30
