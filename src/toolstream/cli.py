"""Command-line interface.

Subcommands cover the pipeline stages individually (split, render,
generate from an endpoint, score, matrix, summary) plus an end-to-end
`report`, a line parser for debugging, and a deterministic fixture
writer. `score` and `report` render the evaluation examples' prompts
themselves and check every recorded completion's prompt hash against
them. Every option is a command-line flag.

Exit codes:
  0  success
  2  command-line usage error (including a missing required flag)
  3  missing or unreadable input (any file-system error, a bad corpus
     line, a non-UTF-8 line on `parse`'s stdin, failing --tokenizer-cmd)
  4  validation error (partition, schema, matrix, aggregation)
  5  endpoint or transport failure
  6  stale completion (prompt-hash mismatch)
  1  unexpected internal error
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from .calls import ParsedCall, normalize_params, parse_first_call
from .clmetrics import (
    BaselineVector,
    MetricsError,
    matrix_from_rows,
    read_matrix_csv,
    summarize,
)
from .corpus import (
    CorpusError,
    IngestionError,
    PartitionError,
    ScoredExample,
    StreamSpec,
    assign_blocks,
    extract_examples,
    load_corpus,
    partition_blocks,
    read_blocks_json,
    select_examples,
    write_blocks_json,
)
from .files import read_lines, write_json
from .genclient import (
    CompletionCache,
    EndpointConfig,
    EndpointError,
    StaleCompletionError,
    TransportError,
    batch_generate,
    import_completions,
    write_completions_jsonl,
)
from .report import ReportError, block_scores_by_stage, render_prompts, run_report
from .report import score_condition, write_matrix
from .scoring import (
    METRICS, AggregationError, read_scores_jsonl, write_category_csv, write_scores_jsonl
)
from .transform import Condition, StatsError, export_rendered_jsonl, read_rendered_jsonl
from . import __version__

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_VALIDATION = 4
EXIT_ENDPOINT = 5
EXIT_STALE = 6

_EPILOG = __doc__.split("Exit codes:")[1] if __doc__ else ""


def _condition(value: str) -> Condition:
    try:
        return Condition(value.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(f"condition must be A or B, got {value!r}")


def _conditions(value: str) -> list[Condition]:
    conditions = [_condition(tag.strip()) for tag in value.split(",") if tag.strip()]
    if not conditions or len(set(conditions)) < len(conditions):
        raise argparse.ArgumentTypeError(f"conditions must be distinct A or B tags, got {value!r}")
    return conditions


def _int_list(value: str) -> list[int]:
    return [int(v) for v in value.split(",") if v.strip()]


def _stop(value: str) -> str:
    import warnings

    # Latin-1 bytes, with a \uXXXX escape for any other character, decode
    # back to the characters typed; only the typed backslash escapes change.
    # The codec warns on an unknown escape and raises on a trailing backslash.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return value.encode("latin-1", "backslashreplace").decode("unicode_escape")
        except (UnicodeDecodeError, DeprecationWarning) as exc:
            raise argparse.ArgumentTypeError(f"bad escape in {value!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toolstream",
        description="Continual tool-use evaluation harness.",
        epilog="Exit codes:" + _EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"toolstream {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="partition a corpus into disjoint-API domain blocks")
    p.add_argument("--corpus", required=True, help="episode JSONL file")
    p.add_argument("--blocks", type=int, default=4, help="number of blocks T")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="blocks.json output path")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("render", help="render next-call prompts for one condition")
    p.add_argument("--corpus", required=True)
    p.add_argument("--condition", type=_condition, required=True)
    p.add_argument("--out", required=True, help="prompts JSONL output path")
    p.add_argument("--blocks-file", help="blocks.json (needed with --sample)")
    p.add_argument("--sample", type=int, help="per-block eval sample size (>= 1)")
    p.add_argument("--sample-seed", type=int, default=42)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("generate", help="obtain completions from an endpoint")
    p.add_argument("--prompts", required=True, help="rendered prompts JSONL")
    p.add_argument("--stage", type=int, required=True, help="trained-through stage label")
    p.add_argument("--out", required=True, help="completions JSONL output path")
    _add_endpoint_flags(p, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("score", help="score completions against the corpus ground truth")
    p.add_argument("--corpus", required=True)
    p.add_argument("--blocks-file", required=True)
    p.add_argument("--completions", action="append", required=True,
                   help="completions JSONL (repeatable)")
    p.add_argument("--out", required=True, help="score JSONL output path")
    p.add_argument("--categories", help="optional final-stage category-count CSV output")
    p.add_argument("--condition", type=_condition,
                   help="condition to score (default: the one the completions hold)")
    p.add_argument("--prompts", help="rendered prompts JSONL: its example ids are the eval set")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("matrix", help="assemble stage-by-block accuracy matrices from scores")
    p.add_argument("--scores", action="append", required=True, help="score JSONL (repeatable)")
    p.add_argument("--metric", default="exact", choices=METRICS)
    p.add_argument("--block-order", type=_int_list, help="comma-separated block ids")
    p.add_argument("--out", required=True, help="matrix CSV output path")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("summary", help="continual-learning statistics from a matrix CSV")
    p.add_argument("--matrix", required=True, help="matrix CSV (stage 0 row optional)")
    p.add_argument("--baseline", help="baseline CSV when the matrix lacks a stage 0 row")
    p.add_argument("--out", help="summary JSON path (default: stdout)")
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("report", help="end-to-end run: split, render, complete, score, emit")
    p.add_argument("--corpus", required=True)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--block-order", type=_int_list)
    p.add_argument("--conditions", type=_conditions, default="A,B", help="comma-separated tags")
    p.add_argument("--import", dest="imports", action="append",
                   help="recorded completions JSONL (repeatable)")
    p.add_argument("--stages", type=_int_list, help="stages to generate (endpoint mode)")
    _add_endpoint_flags(p, required=False)
    p.add_argument("--sample", type=int, help="per-block eval sample size")
    p.add_argument("--tokenizer-cmd", help="external tokenizer command (shell-split)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("parse", help="parse call lines from standard input (debugging)")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("fixtures", help="write the bundled reference corpus and completions")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fixtures)

    return parser


def _add_endpoint_flags(p: argparse.ArgumentParser, required: bool) -> None:
    """The endpoint and cache flags shared by `generate` and `report`. A
    setting left out keeps EndpointConfig's default."""
    p.add_argument("--base-url", required=required)
    p.add_argument("--model", required=required)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--stop", type=_stop, action="append",
                   help="stop sequence (repeatable; escapes decoded)")
    p.add_argument("--timeout", type=float)
    p.add_argument("--max-parallel", type=int)
    p.add_argument("--retries", type=int)
    p.add_argument("--cache-dir")


# EndpointConfig setting -> the flag that gives it.
_ENDPOINT_SETTINGS = {
    "max_new_tokens": "max_tokens", "stop_sequences": "stop", "timeout": "timeout",
    "max_parallel": "max_parallel", "retries": "retries",
}


def _endpoint_config(args: argparse.Namespace) -> EndpointConfig:
    given = {name: getattr(args, dest) for name, dest in _ENDPOINT_SETTINGS.items()}
    return EndpointConfig(
        base_url=args.base_url,
        model_id=args.model,
        **{name: value for name, value in given.items() if value is not None},
    )


def cmd_split(args: argparse.Namespace) -> int:
    episodes = load_corpus(args.corpus)
    blocks = partition_blocks(episodes, args.blocks, args.seed)
    write_blocks_json(args.out, blocks)
    sizes = ", ".join(f"block {b.block_id}: {len(b.examples)}" for b in blocks)
    print(f"wrote {args.out} ({sizes})")
    return EXIT_OK


def _corpus_examples(path: str) -> list[ScoredExample]:
    return [ex for episode in load_corpus(path) for ex in extract_examples(episode)]


def cmd_render(args: argparse.Namespace) -> int:
    corpus_examples = _corpus_examples(args.corpus)
    if args.blocks_file:
        _, assignment = read_blocks_json(args.blocks_file)
        blocks = assign_blocks(corpus_examples, assignment)
        examples = select_examples(blocks, args.sample, args.sample_seed)
    elif args.sample is not None:
        raise ValueError("--sample requires --blocks-file")
    else:
        examples = {ex.id: ex for ex in corpus_examples}
    export_rendered_jsonl(args.out, examples, args.condition)
    print(f"wrote {args.out} ({len(examples)} prompts, condition {args.condition.value})")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    prompts = read_rendered_jsonl(args.prompts)
    cache = CompletionCache(args.cache_dir) if args.cache_dir else None
    result = batch_generate(prompts, _endpoint_config(args), args.stage, cache)
    write_completions_jsonl(args.out, result.records)
    if result.failures:
        for failure in result.failures:
            print(f"failed: {failure.example_id}: {failure.error}", file=sys.stderr)
        raise TransportError(f"{len(result.failures)} of {len(prompts)} completions failed")
    print(f"wrote {args.out} ({len(result.records)} completions)")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    T, assignment = read_blocks_json(args.blocks_file)
    blocks = assign_blocks(_corpus_examples(args.corpus), assignment)
    examples = corpus = select_examples(blocks, sample_size=None, seed=0)
    if args.prompts:
        # The eval set of a sampled run is the examples it rendered.
        rendered = {p.example_id for p in read_rendered_jsonl(args.prompts)}
        examples = {ex_id: ex for ex_id, ex in corpus.items() if ex_id in rendered}
    prompts = [p for condition in Condition for p in render_prompts(examples, condition)]
    completions = import_completions(args.completions, prompts=prompts)
    tags = sorted({c.condition for c in completions})
    if args.condition is None and len(tags) != 1:
        found = ", ".join(tags) or "none"
        raise ReportError(f"completions hold conditions {found}; choose one with --condition")
    condition = args.condition or Condition(tags[0])
    try:
        records = score_condition(completions, condition, examples, corpus, T)
    except AggregationError as exc:
        hint = "" if args.prompts else " (to score a sampled run, pass its prompts file as --prompts)"
        raise AggregationError(f"{exc}{hint}") from exc
    # The category table counts the final stage's records, as `report`'s does.
    finals = [r for r in records if r.stage == T]
    if args.categories and not finals:
        raise ReportError(f"no completions at the final stage {T} for --categories")
    write_scores_jsonl(args.out, records)
    if args.categories:
        write_category_csv(args.categories, finals)
    print(f"wrote {args.out} ({len(records)} score records)")
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace) -> int:
    records = []
    seen: set[tuple[int, str]] = set()
    block_paths: dict[int, str] = {}  # block id -> first file that holds it
    for path in args.scores:
        for record in read_scores_jsonl(path):
            key = (record.stage, record.example_id)
            if key in seen:
                raise AggregationError(
                    f"{path}: more than one score for example {key[1]!r} at stage {key[0]}"
                )
            seen.add(key)
            records.append(record)
            block_paths.setdefault(record.block_id, path)
    if not records:
        raise AggregationError("no score records found")
    T = max(block_paths)
    for block_id, path in block_paths.items():
        if block_id < 1:
            raise AggregationError(f"{path}: block {block_id} is outside blocks 1..{T}")
    stream = StreamSpec(T=T, block_order=tuple(args.block_order or ()))
    rows = write_matrix(args.out, block_scores_by_stage(records), stream, args.metric)
    print(f"wrote {args.out} (metric {args.metric}, stages {sorted(rows)})")
    return EXIT_OK


def cmd_summary(args: argparse.Namespace) -> int:
    blocks, rows = read_matrix_csv(args.matrix)
    matrix, baseline = matrix_from_rows(rows, len(blocks))
    if baseline is not None and args.baseline:
        raise MetricsError(f"{args.matrix}: matrix has a stage 0 row; drop --baseline")
    if baseline is None:
        if not args.baseline:
            raise MetricsError(
                "matrix has no stage 0 row; provide --baseline for forward transfer"
            )
        baseline_blocks, baseline_rows = read_matrix_csv(args.baseline)
        if list(baseline_rows) != [0]:
            raise MetricsError(f"{args.baseline}: baseline CSV must hold exactly one row (stage 0)")
        if baseline_blocks != blocks:
            raise MetricsError(
                f"{args.baseline}: blocks {baseline_blocks} differ from the matrix's {blocks}"
            )
        baseline = BaselineVector(tuple(baseline_rows[0]))
    summary = summarize(matrix, baseline)
    if args.out:
        write_json(args.out, summary)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    stream = StreamSpec(
        T=args.blocks,
        block_order=tuple(args.block_order or ()),
        seed=args.seed,
        sample_size=args.sample,
    )
    endpoint = None
    stages: list[int] = args.stages or []
    if args.base_url:
        if not args.model:
            raise ValueError("endpoint mode needs --model")
        endpoint = _endpoint_config(args)
        stages = stages or [stream.T]
    else:
        dests = ["stages", "model", "cache_dir", *_ENDPOINT_SETTINGS.values()]
        given = [f"--{d.replace('_', '-')}" for d in dests if getattr(args, d) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} only apply in endpoint mode (--base-url)")
    tokenizer_cmd = shlex.split(args.tokenizer_cmd) if args.tokenizer_cmd else None
    out = run_report(
        corpus_path=args.corpus,
        out_dir=args.out,
        stream=stream,
        conditions=args.conditions,
        import_paths=args.imports or [],
        endpoint=endpoint,
        stages=stages,
        cache_dir=args.cache_dir,
        tokenizer_cmd=tokenizer_cmd,
    )
    print(f"report written to {out}")
    return EXIT_OK


def _without_line_end(text: str) -> str:
    return text[:-2] if text.endswith("\r\n") else text.removesuffix("\n")


def _parse_result(text: str) -> dict:
    result = parse_first_call(text)
    if isinstance(result, ParsedCall):
        return {
            "ok": True,
            "name": result.call.name,
            "params": [list(p) for p in result.call.params],
            "normalized": normalize_params(result.call),
            "span": list(result.span),
        }
    return {"ok": False, "reason": result.reason.value, "offset": result.offset}


def cmd_parse(args: argparse.Namespace) -> int:
    for payload in read_lines(
        sys.stdin.buffer, "<stdin>", _without_line_end, _parse_result, IngestionError
    ):
        print(json.dumps(payload))
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import write_reference_fixture

    paths = write_reference_fixture(args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, IngestionError, StatsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TransportError, EndpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    except StaleCompletionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALE
    except (
        PartitionError,
        CorpusError,
        MetricsError,
        AggregationError,
        ReportError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
