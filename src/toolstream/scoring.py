"""Completion scoring: metric flags, the five-way error taxonomy, and
per-block aggregation.

Flags form a chain (exact implies name+any-param implies name implies
parsed), and the five error categories partition every scored example.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .calls import ApiCall, ParsedCall, normalize_params, parse_first_call
from .clmetrics import _mean

__all__ = [
    "MetricFlags",
    "ErrorCategory",
    "ScoreRecord",
    "BlockScore",
    "AggregationError",
    "CATEGORY_ORDER",
    "CATEGORY_LABELS",
    "classify_error",
    "evaluate_completion",
    "score_completions",
    "aggregate_block",
    "aggregate_macro",
    "aggregate_micro",
    "category_counts",
    "write_scores_jsonl",
    "read_scores_jsonl",
    "write_category_csv",
]


class AggregationError(Exception):
    pass


_JSON_BOOL = {True: "true", False: "false"}


@dataclass(frozen=True, slots=True)
class MetricFlags:
    parsed: bool
    name_ok: bool
    name_any_ok: bool
    exact_ok: bool

    def __post_init__(self):
        chain = (self.exact_ok, self.name_any_ok, self.name_ok, self.parsed)
        for stronger, weaker in zip(chain, chain[1:]):
            if stronger and not weaker:
                raise ValueError(f"inconsistent metric flags: {self}")


class ErrorCategory(Enum):
    EXACT_FULL_CALL = "exact_full_call"
    CORRECT_API_SOME_PARAMS = "correct_api_some_params"
    CORRECT_API_WRONG_PARAMS = "correct_api_wrong_params"
    WRONG_API = "wrong_api"
    MALFORMED_NO_CALL = "malformed_no_call"


CATEGORY_ORDER: tuple[ErrorCategory, ...] = (
    ErrorCategory.EXACT_FULL_CALL,
    ErrorCategory.CORRECT_API_SOME_PARAMS,
    ErrorCategory.CORRECT_API_WRONG_PARAMS,
    ErrorCategory.WRONG_API,
    ErrorCategory.MALFORMED_NO_CALL,
)

CATEGORY_LABELS: dict[ErrorCategory, str] = {
    ErrorCategory.EXACT_FULL_CALL: "Exact full call",
    ErrorCategory.CORRECT_API_SOME_PARAMS: "Correct API, some params",
    ErrorCategory.CORRECT_API_WRONG_PARAMS: "Correct API, wrong params",
    ErrorCategory.WRONG_API: "Wrong API",
    ErrorCategory.MALFORMED_NO_CALL: "Malformed or no call",
}


@dataclass(slots=True)
class ScoreRecord:
    example_id: str
    stage: int
    block_id: int
    flags: MetricFlags
    category: ErrorCategory


@dataclass(frozen=True)
class BlockScore:
    stage: int
    block_id: int
    n: int
    acc_exact: float
    acc_name: float
    acc_name_any: float
    rate_malformed: float


def _flags_for(
    predicted: tuple[str, dict[str, str]] | None, expected: tuple[str, dict[str, str]]
) -> MetricFlags:
    """Flags for (name, normalized params) pairs; predicted is None when nothing parsed."""
    parsed = predicted is not None
    expected_name, expected_map = expected
    name_ok = parsed and predicted[0] == expected_name
    predicted_map = predicted[1] if parsed else {}
    exact_ok = name_ok and predicted_map == expected_map
    if expected_map:
        name_any_ok = name_ok and any(
            predicted_map.get(k) == v for k, v in expected_map.items()
        )
    else:
        # Zero-parameter expectation: name+any holds only when the
        # prediction is also parameterless (the exact case).
        name_any_ok = name_ok and not predicted_map
    return MetricFlags(
        parsed=parsed, name_ok=name_ok, name_any_ok=name_any_ok, exact_ok=exact_ok
    )


def classify_error(flags: MetricFlags) -> ErrorCategory:
    """Map metric flags onto the five-way error taxonomy."""
    if not flags.parsed:
        return ErrorCategory.MALFORMED_NO_CALL
    if not flags.name_ok:
        return ErrorCategory.WRONG_API
    if flags.exact_ok:
        return ErrorCategory.EXACT_FULL_CALL
    if flags.name_any_ok:
        return ErrorCategory.CORRECT_API_SOME_PARAMS
    return ErrorCategory.CORRECT_API_WRONG_PARAMS


def evaluate_completion(
    completion: str, expected: ApiCall
) -> tuple[MetricFlags, ErrorCategory, ApiCall | None]:
    """Score one raw completion against its expected call: flags,
    category, and the predicted call (None when nothing parses)."""
    return _evaluate(completion, (expected.name, normalize_params(expected)))


def _evaluate(
    completion: str, expected: tuple[str, dict[str, str]]
) -> tuple[MetricFlags, ErrorCategory, ApiCall | None]:
    parsed = parse_first_call(completion)
    predicted = parsed.call if isinstance(parsed, ParsedCall) else None
    pair = None if predicted is None else (predicted.name, normalize_params(predicted))
    flags = _flags_for(pair, expected)
    return flags, classify_error(flags), predicted


def score_completions(completions, examples) -> list[ScoreRecord]:
    """Score a batch of completion records against indexed scored examples.

    `completions` is an iterable with example_id/stage/text attributes
    (genclient.CompletionRecord); `examples` maps example_id to a
    ScoredExample whose block_id is assigned. Each (stage, example) may be
    scored once; a second completion for it is an error. Each expected
    call is normalized once, however many stages score its example.
    """
    records: list[ScoreRecord] = []
    seen: set[tuple[int, str]] = set()
    expected_by_id: dict[str, tuple[str, dict[str, str]]] = {}
    for completion in completions:
        key = (int(completion.stage), completion.example_id)
        if key in seen:
            raise AggregationError(
                f"more than one completion for example {key[1]!r} at stage {key[0]}"
            )
        seen.add(key)
        try:
            example = examples[completion.example_id]
        except KeyError:
            raise AggregationError(
                f"completion references unknown example id {completion.example_id!r}"
            ) from None
        if example.block_id is None:
            raise AggregationError(
                f"example {example.id!r} has no block assignment"
            )
        expected = expected_by_id.get(example.id)
        if expected is None:
            expected = expected_by_id[example.id] = (
                example.expected.name, normalize_params(example.expected)
            )
        flags, category, _ = _evaluate(completion.text, expected)
        records.append(
            ScoreRecord(
                example_id=example.id,
                stage=key[0],
                block_id=example.block_id,
                flags=flags,
                category=category,
            )
        )
    return records


def aggregate_block(records: Sequence[ScoreRecord]) -> BlockScore:
    """Exact per-block accuracy fractions; all records must share (stage, block)."""
    if not records:
        raise AggregationError("cannot aggregate an empty record list")
    keys = {(r.stage, r.block_id) for r in records}
    if len(keys) > 1:
        raise AggregationError(f"records span multiple (stage, block) keys: {sorted(keys)}")
    n = len(records)
    return BlockScore(
        stage=records[0].stage,
        block_id=records[0].block_id,
        n=n,
        acc_exact=sum(r.flags.exact_ok for r in records) / n,
        acc_name=sum(r.flags.name_ok for r in records) / n,
        acc_name_any=sum(r.flags.name_any_ok for r in records) / n,
        rate_malformed=sum(not r.flags.parsed for r in records) / n,
    )


def aggregate_macro(blocks: Sequence[BlockScore]) -> dict[str, float]:
    """Unweighted per-metric mean over blocks (printed-table convention)."""
    if not blocks:
        raise AggregationError("cannot average zero block scores")
    return {
        "exact": _mean([b.acc_exact for b in blocks]),
        "name": _mean([b.acc_name for b in blocks]),
        "name_any": _mean([b.acc_name_any for b in blocks]),
        "malformed": _mean([b.rate_malformed for b in blocks]),
    }


def aggregate_micro(records: Sequence[ScoreRecord]) -> dict[str, float]:
    """Pooled accuracy over all records, for transparency next to macro."""
    if not records:
        raise AggregationError("cannot aggregate an empty record list")
    n = len(records)
    return {
        "exact": sum(r.flags.exact_ok for r in records) / n,
        "name": sum(r.flags.name_ok for r in records) / n,
        "name_any": sum(r.flags.name_any_ok for r in records) / n,
        "malformed": sum(not r.flags.parsed for r in records) / n,
    }


def category_counts(records: Iterable[ScoreRecord]) -> dict[ErrorCategory, int]:
    counts = {category: 0 for category in CATEGORY_ORDER}
    for record in records:
        counts[record.category] += 1
    return counts


def write_scores_jsonl(path: str | Path, records: Sequence[ScoreRecord]) -> None:
    """One JSON object per line, byte-equal to json.dumps of the record's
    dict in the key order below."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for r in records:
            f = r.flags
            fh.write(
                f'{{"example_id": {json.dumps(r.example_id)}, "stage": {r.stage:d}, '
                f'"block": {r.block_id:d}, "flags": {{"parsed": {_JSON_BOOL[f.parsed]}, '
                f'"name_ok": {_JSON_BOOL[f.name_ok]}, '
                f'"name_any_ok": {_JSON_BOOL[f.name_any_ok]}, '
                f'"exact_ok": {_JSON_BOOL[f.exact_ok]}}}, "category": "{r.category.value}"}}\n'
            )


def read_scores_jsonl(path: str | Path) -> list[ScoreRecord]:
    records: list[ScoreRecord] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                flags = MetricFlags(
                    parsed=bool(raw["flags"]["parsed"]),
                    name_ok=bool(raw["flags"]["name_ok"]),
                    name_any_ok=bool(raw["flags"]["name_any_ok"]),
                    exact_ok=bool(raw["flags"]["exact_ok"]),
                )
                records.append(
                    ScoreRecord(
                        example_id=str(raw["example_id"]),
                        stage=int(raw["stage"]),
                        block_id=int(raw["block"]),
                        flags=flags,
                        category=ErrorCategory(raw["category"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise AggregationError(f"{path}: bad score record at line {line_no}: {exc}") from exc
    return records


def write_category_csv(path: str | Path, records: Sequence[ScoreRecord]) -> None:
    """Category-count table, rows in the standard taxonomy order."""
    counts = category_counts(records)
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "count"])
        for category in CATEGORY_ORDER:
            writer.writerow([CATEGORY_LABELS[category], counts[category]])
