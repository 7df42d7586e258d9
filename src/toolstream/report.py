"""Run orchestration and artifact emission: score files, category tables,
stage-by-block matrices, plot-ready heatmap data, and the run manifest.

Every artifact is a pure function of the manifest inputs plus the
completion source, so reruns are byte-identical.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Container, Mapping, Sequence

from . import __version__
from .clmetrics import MetricsError, matrix_from_rows, summarize, write_matrix_csv
from .corpus import (
    ScoredExample,
    StreamSpec,
    load_corpus,
    partition_blocks,
    select_examples,
    write_blocks_json,
)
from .files import write_csv, write_json
from .genclient import (
    CompletionCache,
    CompletionRecord,
    EndpointConfig,
    TransportError,
    batch_generate,
    import_completions,
)
from .scoring import (
    METRICS,
    ScoreRecord,
    aggregate_macro,
    rates,
    score_completions,
    write_category_csv,
    write_scores_jsonl,
)
from .transform import (
    Condition, RenderedPrompt, context_stats, export_rendered_jsonl, render_prompt
)

__all__ = [
    "ReportError",
    "format_pct",
    "emit_heatmap_data",
    "block_scores_by_stage",
    "render_prompts",
    "score_condition",
    "write_matrix",
    "run_report",
]

class ReportError(Exception):
    pass


def format_pct(fraction: float) -> str:
    """Percentage with one decimal place, half-up rounding."""
    from decimal import ROUND_HALF_UP, Decimal

    return str(
        Decimal(repr(fraction * 100)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    )


def block_scores_by_stage(
    records: Sequence[ScoreRecord],
) -> dict[int, dict[int, dict[str, float]]]:
    """Group score records and aggregate: stage -> block_id -> rates."""
    grouped: dict[tuple[int, int], list[ScoreRecord]] = {}
    for record in records:
        grouped.setdefault((record.stage, record.block_id), []).append(record)
    out: dict[int, dict[int, dict[str, float]]] = {}
    for (stage, block_id), recs in sorted(grouped.items()):
        out.setdefault(stage, {})[block_id] = rates(recs)
    return out


def render_prompts(
    examples: Mapping[str, ScoredExample], condition: Condition
) -> list[RenderedPrompt]:
    """The render step: the examples' prompts under one condition, in id order."""
    return [render_prompt(examples[ex_id], condition) for ex_id in sorted(examples)]


def score_condition(
    completions: Sequence[CompletionRecord],
    condition: Condition,
    examples: Mapping[str, ScoredExample],
    corpus_ids: Container[str],
    T: int,
) -> list[ScoreRecord]:
    """The score step: score one condition's completions. Records of corpus
    examples outside the evaluation set (those a sample leaves out) are
    skipped; an id outside the corpus reaches score_completions, which
    rejects it. A completion at a stage outside 0..T is an error."""
    tag = condition.value
    kept = [
        c for c in completions
        if c.condition == tag and (c.example_id in examples or c.example_id not in corpus_ids)
    ]
    records = score_completions(kept, examples)
    if not records:
        raise ReportError(f"no completions found for condition {tag}")
    # Records come sorted by stage, so the first and last hold the extremes.
    for stage in (records[0].stage, records[-1].stage):
        if not 0 <= stage <= T:
            raise ReportError(
                f"condition {tag} has completions at stage {stage}, outside stages 0..{T}"
            )
    return records


def write_matrix(path: str | Path, scores: Mapping, stream: StreamSpec, metric: str) -> dict:
    """The matrix step: write and return the rows (stage -> per-block
    values) of the stages in scores (block_scores_by_stage) that cover every
    block, in the stream's block order: the diagonal is the just-trained block."""
    order = stream.block_order
    rows = {
        stage: [by_block[b][metric] for b in order]
        for stage, by_block in scores.items()
        if all(b in by_block for b in order)
    }
    if not rows:
        raise MetricsError("no stage has scores for every block; cannot build a matrix")
    write_matrix_csv(path, rows, order)
    return rows


def emit_heatmap_data(
    path: str | Path,
    per_condition_rows: Mapping[str, Mapping[int, Sequence[float]]],
    block_ids: Sequence[int],
) -> None:
    """Long-format CSV (condition,stage,block,value) for external plotting."""
    rows = (
        [condition, stage, block_id, repr(float(value))]
        for condition, by_stage in sorted(per_condition_rows.items())
        for stage in sorted(by_stage)
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
        raise ReportError("exactly one completion source is required: imports or an endpoint")
    for i, stage in enumerate(stages):
        if not 0 <= stage <= stream.T:
            raise ReportError(f"stage {stage} is outside stages 0..{stream.T}")
        if stage in stages[:i]:
            raise ReportError(f"stage {stage} appears more than once")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    episodes = load_corpus(corpus_path)
    blocks = partition_blocks(episodes, stream.T, stream.seed)
    write_blocks_json(out / "blocks.json", blocks)
    examples = select_examples(blocks, stream.sample_size, stream.seed)

    prompts_by_condition: dict[str, list[RenderedPrompt]] = {}
    for condition in conditions:
        prompts = render_prompts(examples, condition)
        prompts_by_condition[condition.value] = prompts
        export_rendered_jsonl(out / f"prompts_{condition.value}.jsonl", prompts, examples)

    all_prompts = [p for ps in prompts_by_condition.values() for p in ps]
    # Before any completion is obtained, so a failing tokenizer command
    # stops the run without scores or a manifest.
    stats = context_stats(all_prompts, tokenizer_cmd=tokenizer_cmd)
    if "A" in stats and "B" in stats and stats["A"]["ws_token"] > 0:
        stats["ws_token_ratio_b_over_a"] = (
            stats["B"]["ws_token"] / stats["A"]["ws_token"]
        )
    write_json(out / "context_stats.json", stats)

    completions: list[CompletionRecord] = []
    if import_paths:
        completions = import_completions(import_paths, prompts=all_prompts)
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
                completions.extend(batch.ok_records)

    corpus_ids = {ex.id for block in blocks for ex in block.examples}
    # Every condition is scored, and its stages checked, before any score
    # file is written.
    scored = {
        condition.value: score_condition(completions, condition, examples, corpus_ids, stream.T)
        for condition in conditions
    }
    # Condition -> its final-stage macro and micro means and record count.
    final_means: dict[str, dict] = {}
    rows_by_metric: dict[str, dict[str, dict[int, list[float]]]] = {m: {} for m in METRICS}
    for tag, score_records in scored.items():
        write_scores_jsonl(out / f"scores_{tag}.jsonl", score_records)
        scores = block_scores_by_stage(score_records)
        for metric in METRICS:
            rows_by_metric[metric][tag] = write_matrix(
                out / f"matrix_{metric}_{tag}.csv", scores, stream, metric
            )

        matrix_rows = rows_by_metric["exact"][tag]
        if stream.T in matrix_rows:
            finals = [r for r in score_records if r.stage == stream.T]
            write_category_csv(out / f"categories_{tag}.csv", finals)
            final_means[tag] = {
                "macro": aggregate_macro([scores[stream.T][b] for b in stream.block_order]),
                "micro": rates(finals),
                "n_final": len(finals),
            }
        if all(s in matrix_rows for s in range(0, stream.T + 1)):
            matrix, baseline = matrix_from_rows(matrix_rows, stream.T)
            write_json(out / f"summary_{tag}.json", summarize(matrix, baseline))
        else:
            print(
                f"note: condition {tag} lacks stage rows 0..{stream.T}; "
                "skipping the continual-learning summary",
                file=sys.stderr,
            )

    for metric in METRICS:
        per_condition = {
            tag: {s: row for s, row in rows.items() if s >= 1}
            for tag, rows in rows_by_metric[metric].items()
        }
        emit_heatmap_data(
            out / f"heatmap_{metric}.csv", per_condition, stream.block_order
        )

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
        # Every scored stage covers every block, so it has a matrix row.
        "stages": sorted({s for rows in rows_by_metric["exact"].values() for s in rows}),
        "source": (
            {"mode": "import", "paths": [str(p) for p in import_paths]}
            if import_paths
            else {"mode": "http", "base_url": endpoint.base_url, "model_id": endpoint.model_id}
        ),
    })
    return out
