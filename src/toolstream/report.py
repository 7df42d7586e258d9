"""Run orchestration and artifact emission: score files, category tables,
stage-by-block matrices, plot-ready heatmap data, and the run manifest.

Every artifact is a pure function of the manifest inputs plus the
completion source, so reruns are byte-identical.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .clmetrics import _mean, matrix_from_rows, summarize, write_matrix_csv
from .corpus import (
    ScoredExample,
    StreamSpec,
    load_corpus,
    partition_blocks,
    select_examples,
    write_blocks_json,
)
from .files import in_range, write_csv, write_json
from .genclient import (
    CompletionCache,
    EndpointConfig,
    TransportError,
    batch_generate,
    read_completions,
)
from .scoring import METRICS, Scorer, StageCodes, rates, write_category_csv, write_scores_jsonl
from .transform import (
    Condition, RenderedPrompt, context_stats, export_rendered_jsonl, render_prompt
)
from .genclient import import_completions  # noqa: F401 - kept for perfbench's tracer
from .scoring import score_completions  # noqa: F401 - kept for perfbench's tracer


def format_pct(fraction: float) -> str:
    """Percentage with one decimal place, half-up rounding."""
    from decimal import ROUND_HALF_UP, Decimal

    return str(
        Decimal(repr(fraction * 100)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    )


def block_scores_by_stage(codes: StageCodes) -> dict[int, dict[int, dict[str, float]]]:
    """Per-block rates of each scored stage: stage -> block_id -> rates, for
    the blocks with scores at that stage, stages and blocks ascending."""
    counts = {(stage, b): codes.counts(stage, b) for stage in codes.rows for b in codes.blocks}
    return {
        stage: {b: rates(counts[stage, b]) for b in codes.blocks if any(counts[stage, b])}
        for stage in sorted(codes.rows)
    }


def render_prompts(
    examples: Mapping[str, ScoredExample], condition: Condition
) -> list[RenderedPrompt]:
    """The render step: the examples' prompts under one condition, in id order."""
    return [render_prompt(examples[ex_id], condition) for ex_id in sorted(examples)]


def write_matrix(path: str | Path, scores: Mapping, stream: StreamSpec, metric: str) -> dict:
    """The matrix step: write and return the rows (stage -> per-block
    values) of the stages in scores (block_scores_by_stage) that cover every
    block, in the stream's block order: the diagonal is the just-trained block."""
    order = stream.block_order
    rows = {}
    for stage, by_block in scores.items():
        lacking = [b for b in order if b not in by_block]
        if lacking:
            print(f"note: stage {stage} has no scores for blocks {lacking}; "
                  "leaving it out of the matrix", file=sys.stderr)
        else:
            rows[stage] = [by_block[b][metric] for b in order]
    if not rows:
        raise ValueError("no stage has scores for every block; cannot build a matrix")
    write_matrix_csv(path, rows, order)
    return rows


def emit_heatmap_data(
    path: str | Path,
    per_condition_rows: Mapping[str, Mapping[int, Sequence[float]]],
    block_ids: Sequence[int],
) -> None:
    """Long-format CSV (condition,stage,block,value) of the trained stages'
    rows (stage 0, the baseline, is left out) for external plotting."""
    rows = (
        [condition, stage, block_id, repr(float(value))]
        for condition, by_stage in sorted(per_condition_rows.items())
        for stage in sorted(by_stage) if stage >= 1
        for block_id, value in zip(block_ids, by_stage[stage])
    )
    write_csv(path, ["condition", "stage", "block", "value"], rows)


def run_report(
    corpus_path: str | Path,
    out_dir: str | Path,
    stream: StreamSpec,
    conditions: Sequence[Condition],
    import_paths: Sequence[str | Path] = (),
    endpoint: EndpointConfig | None = None,
    stages: Sequence[int] = (),
    cache_dir: str | Path | None = None,
    tokenizer_cmd: Sequence[str] | None = None,
) -> Path:
    """End-to-end pipeline: split, render, obtain completions, score, emit.

    Completions come either from recorded JSONL files (import_paths) or a
    live endpoint (endpoint + stages). A recorded completion whose prompt
    hash does not match its rendered prompt raises StaleCompletionError
    before anything is scored. Returns the output directory.
    """
    if bool(import_paths) == (endpoint is not None):
        raise ValueError("exactly one completion source is required: imports or an endpoint")
    for i, stage in enumerate(stages):
        in_range(stage, 0, stream.T, "stage")
        if stage in stages[:i]:
            raise ValueError(f"stage {stage} appears more than once")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    episodes = load_corpus(corpus_path)
    blocks = partition_blocks(episodes, stream.T, stream.seed)
    write_blocks_json(out / "blocks.json", blocks)
    examples = select_examples(blocks, stream.sample_size, stream.seed)

    prompts_by_condition: dict[str, list[RenderedPrompt]] = {}
    for condition in conditions:
        prompts_by_condition[condition.value] = render_prompts(examples, condition)
        export_rendered_jsonl(out / f"prompts_{condition.value}.jsonl", examples, condition)

    all_prompts = [p for ps in prompts_by_condition.values() for p in ps]
    # Before any completion is obtained, so a failing tokenizer command
    # stops the run without scores or a manifest.
    stats = context_stats(all_prompts, tokenizer_cmd=tokenizer_cmd)
    if "A" in stats and "B" in stats and stats["A"]["ws_token"] > 0:
        stats["ws_token_ratio_b_over_a"] = stats["B"]["ws_token"] / stats["A"]["ws_token"]
    write_json(out / "context_stats.json", stats)

    # Every completion goes straight into its condition's score rows. Every
    # condition is scored, and its stages checked, before any score file is
    # written.
    tags = [condition.value for condition in conditions]
    corpus_ids = {ex.id for block in blocks for ex in block.examples}
    scorer = Scorer(examples, corpus_ids, tags, stream.T)
    if import_paths:
        read_completions(import_paths, all_prompts, scorer.add)
    else:
        cache = CompletionCache(cache_dir) if cache_dir else None
        for condition in conditions:
            for stage in stages:
                batch = batch_generate(
                    prompts_by_condition[condition.value], endpoint, stage, cache
                )
                if batch.failures:
                    failed = ", ".join(f.example_id for f in batch.failures[:5])
                    raise TransportError(
                        f"{len(batch.failures)} completions failed at stage {stage} "
                        f"(condition {condition.value}): {failed}"
                    )
                for r in batch.records:
                    scorer.add(r.example_id, r.condition, r.stage, r.prompt_hash, r.text)
    scored = {tag: scorer.scores(tag) for tag in tags}
    # Condition -> its final-stage macro and micro means and record count.
    final_means: dict[str, dict] = {}
    rows_by_metric: dict[str, dict[str, dict[int, list[float]]]] = {m: {} for m in METRICS}
    for tag, codes in scored.items():
        write_scores_jsonl(out / f"scores_{tag}.jsonl", codes)
        scores = block_scores_by_stage(codes)
        for metric in METRICS:
            rows_by_metric[metric][tag] = write_matrix(
                out / f"matrix_{metric}_{tag}.csv", scores, stream, metric
            )

        # Every scored stage covers every block, so each is a matrix row.
        if stream.T in codes.rows:
            finals = codes.counts(stream.T)
            write_category_csv(out / f"categories_{tag}.csv", finals)
            final_means[tag] = {
                "macro": {m: _mean(rows_by_metric[m][tag][stream.T]) for m in METRICS},
                "micro": rates(finals),
                "n_final": sum(finals),
            }
        if len(codes.rows) == stream.T + 1:
            matrix, baseline = matrix_from_rows(rows_by_metric["exact"][tag], stream.T)
            write_json(out / f"summary_{tag}.json", summarize(matrix, baseline))
        else:
            print(
                f"note: condition {tag} lacks stage rows 0..{stream.T}; "
                "skipping the continual-learning summary",
                file=sys.stderr,
            )

    for metric in METRICS:
        emit_heatmap_data(out / f"heatmap_{metric}.csv", rows_by_metric[metric], stream.block_order)

    if final_means:
        final_means = dict(sorted(final_means.items()))
        table = (
            [tag, metric]
            + [format_pct(v) for v in rows_by_metric[metric][tag][stream.T]]
            + [format_pct(means["macro"][metric])]
            for tag, means in final_means.items()
            for metric in METRICS
        )
        header = ["condition", "metric"] + [f"block_{b}" for b in stream.block_order] + ["mean"]
        write_csv(out / "final_table.csv", header, table)
        write_json(out / "final_means.json", final_means)

    # Everything needed to reproduce the run given the completion source.
    write_json(out / "manifest.json", {
        "tool": "toolstream",
        "tool_version": __version__,
        "corpus": str(corpus_path),
        "stream": {
            "T": stream.T,
            "block_order": list(stream.block_order),
            "seed": stream.seed,
            "sample_size": stream.sample_size,
        },
        "conditions": [c.value for c in conditions],
        "stages": sorted({s for codes in scored.values() for s in codes.rows}),
        "source": (
            {"mode": "import", "paths": [str(p) for p in import_paths]}
            if import_paths
            else {"mode": "http", "base_url": endpoint.base_url, "model_id": endpoint.model_id,
                  "max_tokens": endpoint.max_new_tokens, "stop": list(endpoint.stop_sequences)}
        ),
    })
    return out
