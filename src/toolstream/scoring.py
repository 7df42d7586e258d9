"""Completion scoring: the five-way error taxonomy, the metric flags and
rates that follow from it, and their block and macro means.

The error category is the only stored score. Its flags come from a table
whose five rows are the patterns the chain (exact implies name+any-param
implies name implies parsed) allows, so each rate counts categories.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .calls import ApiCall, ParsedCall, normalize_params, parse_first_call, scoring_view
from .clmetrics import _mean
from .files import integer, read_jsonl, string, write_csv


class AggregationError(Exception):
    pass


class MetricFlags(NamedTuple):
    parsed: bool
    name_ok: bool
    name_any_ok: bool
    exact_ok: bool


class ErrorCategory(Enum):
    EXACT_FULL_CALL = "exact_full_call"
    CORRECT_API_SOME_PARAMS = "correct_api_some_params"
    CORRECT_API_WRONG_PARAMS = "correct_api_wrong_params"
    WRONG_API = "wrong_api"
    MALFORMED_NO_CALL = "malformed_no_call"

    # Members are singletons, so identity hashing is exact and runs no Python.
    __hash__ = object.__hash__


CATEGORY_ORDER: tuple[ErrorCategory, ...] = tuple(ErrorCategory)

CATEGORY_LABELS: dict[ErrorCategory, str] = {
    ErrorCategory.EXACT_FULL_CALL: "Exact full call",
    ErrorCategory.CORRECT_API_SOME_PARAMS: "Correct API, some params",
    ErrorCategory.CORRECT_API_WRONG_PARAMS: "Correct API, wrong params",
    ErrorCategory.WRONG_API: "Wrong API",
    ErrorCategory.MALFORMED_NO_CALL: "Malformed or no call",
}

FLAGS: dict[ErrorCategory, MetricFlags] = {
    ErrorCategory.EXACT_FULL_CALL: MetricFlags(True, True, True, True),
    ErrorCategory.CORRECT_API_SOME_PARAMS: MetricFlags(True, True, True, False),
    ErrorCategory.CORRECT_API_WRONG_PARAMS: MetricFlags(True, True, False, False),
    ErrorCategory.WRONG_API: MetricFlags(True, False, False, False),
    ErrorCategory.MALFORMED_NO_CALL: MetricFlags(False, False, False, False),
}

# Metric name -> the categories whose records it counts.
_COUNTED: dict[str, tuple[ErrorCategory, ...]] = {
    "exact": tuple(c for c, f in FLAGS.items() if f.exact_ok),
    "name": tuple(c for c, f in FLAGS.items() if f.name_ok),
    "name_any": tuple(c for c, f in FLAGS.items() if f.name_any_ok),
    "malformed": tuple(c for c, f in FLAGS.items() if not f.parsed),
}
METRICS: tuple[str, ...] = tuple(_COUNTED)


# A call as scored: (name, normalized params).
_Pair = tuple[str, dict[str, str]]


class ScoreRecord:
    # Slots, not a NamedTuple: CPython 3.11+ specialises slot reads, which
    # sorting, writing and aggregating make several of per record.
    __slots__ = ("example_id", "stage", "block_id", "category")

    def __init__(self, example_id: str, stage: int, block_id: int, category: ErrorCategory):
        self.example_id = example_id
        self.stage = stage
        self.block_id = block_id
        self.category = category


def evaluate_completion(completion: str, expected: ApiCall) -> ErrorCategory:
    """Category of one raw completion against its expected call."""
    return _evaluate(completion, (expected.name, normalize_params(expected)))


def _evaluate(completion: str, expected: _Pair) -> ErrorCategory:
    predicted = scoring_view(completion)
    if predicted is None:
        # The scanner reads every text the view declines.
        parsed = parse_first_call(completion)
        if not isinstance(parsed, ParsedCall):
            return ErrorCategory.MALFORMED_NO_CALL
        predicted = (parsed.call.name, normalize_params(parsed.call))
    predicted_name, predicted_map = predicted
    expected_name, expected_map = expected
    if predicted_name != expected_name:
        return ErrorCategory.WRONG_API
    if predicted_map == expected_map:
        return ErrorCategory.EXACT_FULL_CALL
    # A zero-parameter expectation has no pair to reproduce, so a
    # prediction with parameters lands in wrong params.
    if any(predicted_map.get(k) == v for k, v in expected_map.items()):
        return ErrorCategory.CORRECT_API_SOME_PARAMS
    return ErrorCategory.CORRECT_API_WRONG_PARAMS


def score_completions(completions, examples) -> list[ScoreRecord]:
    """Score a batch of completion records against indexed scored examples.

    `completions` is an iterable with example_id/stage/text attributes
    (genclient.CompletionRecord); `examples` maps example_id to a
    ScoredExample whose block_id is assigned. Each (stage, example) may be
    scored once; a second completion for it is an error, and so is an
    example left unscored at a stage the completions have. Each expected
    call is normalized once, however many stages score its example.
    Records come back sorted by (stage, block_id, example_id).
    """
    # Each blocked example's slot in (block_id, example_id) order; each
    # stage's row holds one record per slot, so the rows in stage order
    # are the records in their final order.
    by_slot = sorted(
        (ex for ex in examples.values() if ex.block_id is not None),
        key=lambda ex: (ex.block_id, ex.id),
    )
    slots = {ex.id: slot for slot, ex in enumerate(by_slot)}
    expected_by_slot: list[_Pair | None] = [None] * len(by_slot)
    rows: dict[int, list[ScoreRecord | None]] = {}
    for completion in completions:
        stage = int(completion.stage)
        slot = slots.get(completion.example_id)
        if slot is None:
            if completion.example_id in examples:
                raise AggregationError(
                    f"example {examples[completion.example_id].id!r} has no block assignment"
                )
            raise AggregationError(
                f"completion references unknown example id {completion.example_id!r}"
            )
        row = rows.get(stage)
        if row is None:
            row = rows[stage] = [None] * len(by_slot)
        elif row[slot] is not None:
            raise AggregationError(
                f"more than one completion for example {completion.example_id!r} at stage {stage}"
            )
        example = by_slot[slot]
        expected = expected_by_slot[slot]
        if expected is None:
            expected = expected_by_slot[slot] = (
                example.expected.name, normalize_params(example.expected)
            )
        row[slot] = ScoreRecord(
            example.id, stage, example.block_id, _evaluate(completion.text, expected)
        )
    # Every example is scored at every stage seen unless a slot is empty or
    # an example has no block (and so no slot). A gap means the loop ran,
    # so `completion` is bound and names the condition.
    missing = sum(row.count(None) for row in rows.values())
    missing += (len(examples) - len(by_slot)) * len(rows)
    if missing:
        raise AggregationError(
            f"condition {completion.condition}: {missing} of {len(examples)} examples x "
            f"{len(rows)} stages have no completion"
        )
    return [record for stage in sorted(rows) for record in rows[stage]]


def rates(records: Sequence[ScoreRecord]) -> dict[str, float]:
    """Pooled per-metric rates over the records, keyed by METRICS: one
    block's score, or the micro mean over several blocks."""
    if not records:
        raise AggregationError("cannot aggregate an empty record list")
    counts = category_counts(records)
    return {
        metric: sum(counts[c] for c in categories) / len(records)
        for metric, categories in _COUNTED.items()
    }


def aggregate_macro(blocks: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Unweighted per-metric mean over per-block rates (printed-table convention)."""
    if not blocks:
        raise AggregationError("cannot average zero block scores")
    return {metric: _mean([b[metric] for b in blocks]) for metric in METRICS}


def category_counts(records: Iterable[ScoreRecord]) -> dict[ErrorCategory, int]:
    counts = {category: 0 for category in CATEGORY_ORDER}
    for record in records:
        counts[record.category] += 1
    return counts


# Each line ends with its category's flags and the category, pre-rendered.
_LINE_TAIL = {
    c: f', "flags": {json.dumps(f._asdict())}, "category": "{c.value}"}}\n'
    for c, f in FLAGS.items()
}


def write_scores_jsonl(path: str | Path, records: Sequence[ScoreRecord]) -> None:
    """One JSON object per line, byte-equal to json.dumps of the record's
    dict in the key order below; the flags are those of the category. The
    id is escaped by the function json.dumps calls for a str."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for r in records:
            fh.write(
                f'{{"example_id": {_escape(r.example_id)}, "stage": {r.stage:d}, '
                f'"block": {r.block_id:d}{_LINE_TAIL[r.category]}'
            )


def read_scores_jsonl(path: str | Path) -> list[ScoreRecord]:
    """Read score records back, rejecting flags that contradict the category."""
    return read_jsonl(path, _score_record, AggregationError)


def _score_record(raw) -> ScoreRecord:
    category = ErrorCategory(raw["category"])
    if raw["flags"] != FLAGS[category]._asdict():
        raise ValueError(f"flags {raw['flags']} contradict {category.value}")
    return ScoreRecord(
        example_id=string(raw["example_id"], "example_id"),
        stage=integer(raw["stage"], "stage"),
        block_id=integer(raw["block"], "block"),
        category=category,
    )


def write_category_csv(path: str | Path, records: Sequence[ScoreRecord]) -> None:
    """Category-count table, rows in the standard taxonomy order."""
    counts = category_counts(records)
    rows = ([CATEGORY_LABELS[c], counts[c]] for c in CATEGORY_ORDER)
    write_csv(path, ["category", "count"], rows)
