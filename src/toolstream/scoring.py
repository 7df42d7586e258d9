"""Completion scoring: the five-way error taxonomy, the metric flags and
rates that follow from it, and the score files that hold it.

The error category is the only stored score. Its flags come from a table
whose five rows are the patterns the chain (exact implies name+any-param
implies name implies parsed) allows, so each rate counts categories.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from .calls import ApiCall, ParsedCall, normalize_params, parse_first_call, scoring_view
from .files import in_range, integer, read_jsonl, string, write_csv, write_lines


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

# A category's code, as score rows hold it: its place in CATEGORY_ORDER,
# from 1; 0 marks a slot with no score.
CODE: dict[ErrorCategory, int] = {c: code for code, c in enumerate(CATEGORY_ORDER, start=1)}
_CODES = tuple(CODE.values())
_EXACT, _SOME_PARAMS, _WRONG_PARAMS, _WRONG_API, _MALFORMED = _CODES

# Metric name -> the places, in CATEGORY_ORDER, of the categories it counts.
_COUNTED: dict[str, tuple[int, ...]] = {
    metric: tuple(i for i, c in enumerate(CATEGORY_ORDER) if getattr(FLAGS[c], flag) is counted)
    for metric, flag, counted in (("exact", "exact_ok", True), ("name", "name_ok", True),
                                  ("name_any", "name_any_ok", True), ("malformed", "parsed", False))
}
METRICS: tuple[str, ...] = tuple(_COUNTED)


# A call as scored: (name, normalized params).
_Pair = tuple[str, dict[str, str]]


def evaluate_completion(completion: str, expected: ApiCall) -> ErrorCategory:
    """Category of one raw completion against its expected call."""
    return CATEGORY_ORDER[_evaluate(completion, (expected.name, normalize_params(expected))) - 1]


def _evaluate(completion: str, expected: _Pair) -> int:
    predicted = scoring_view(completion)
    if predicted is None:
        # The scanner reads every text the view declines.
        parsed = parse_first_call(completion)
        if not isinstance(parsed, ParsedCall):
            return _MALFORMED
        predicted = (parsed.call.name, normalize_params(parsed.call))
    predicted_name, predicted_map = predicted
    expected_name, expected_map = expected
    if predicted_name != expected_name:
        return _WRONG_API
    if predicted_map == expected_map:
        return _EXACT
    # A zero-parameter expectation has no pair to reproduce, so a
    # prediction with parameters lands in wrong params.
    if any(predicted_map.get(k) == v for k, v in expected_map.items()):
        return _SOME_PARAMS
    return _WRONG_PARAMS


class StageCodes:
    """One condition's scores: rows[stage][slot] is the code (CODE, or 0
    for none) of the category of example ids[slot] at that stage. Slots
    hold the (block_id, example_id) pairs given, sorted, so each block's
    slots are one range, blocks[block_id] = (lo, hi)."""

    __slots__ = ("ids", "blocks", "rows")

    def __init__(self, pairs: Iterable[tuple[int, str]]):
        self.ids: list[str] = []
        self.blocks: dict[int, tuple[int, int]] = {}
        for slot, (block_id, example_id) in enumerate(sorted(pairs)):
            self.ids.append(example_id)
            self.blocks[block_id] = (self.blocks.get(block_id, (slot,))[0], slot + 1)
        self.rows: dict[int, bytearray] = {}

    def counts(self, stage: int, block_id: int | None = None) -> list[int]:
        """The five category counts, in CATEGORY_ORDER, of the stage's
        scores, or of one block's."""
        row = self.rows[stage]
        lo, hi = (0, len(row)) if block_id is None else self.blocks[block_id]
        return [row.count(code, lo, hi) for code in _CODES]


class Scorer:
    """Scores completions one at a time, as they are read, into one
    StageCodes per condition in `tags`, against the evaluation `examples`
    (id -> ScoredExample, each with its block_id assigned). A completion of
    another condition, or of a corpus example (in `corpus_ids`) that the
    evaluation set leaves out, is skipped. An example outside the corpus,
    a second completion for a (stage, example) and a stage outside 0..T
    are errors, raised at that completion.
    """

    __slots__ = ("codes", "_corpus_ids", "_T", "_slot", "_expected")

    def __init__(self, examples: Mapping, corpus_ids: Container[str], tags: Iterable[str], T: int):
        by_slot = sorted(examples.values(), key=lambda ex: (ex.block_id, ex.id))
        self.codes = {tag: StageCodes((ex.block_id, ex.id) for ex in by_slot) for tag in tags}
        self._corpus_ids = corpus_ids
        self._T = T
        self._slot = {ex.id: slot for slot, ex in enumerate(by_slot)}
        # Each expected call, normalized once however many stages score it.
        self._expected = [(ex.expected.name, normalize_params(ex.expected)) for ex in by_slot]

    def add(self, example_id: str, condition: str, stage: int, prompt_hash: str, text: str) -> None:
        """Score one completion; genclient.read_completions has checked its hash."""
        codes = self.codes.get(condition)
        if codes is None:
            return
        slot = self._slot.get(example_id)
        if slot is None:
            if example_id in self._corpus_ids:
                return
            raise ValueError(f"completion references unknown example id {example_id!r}")
        row = codes.rows.get(stage)
        if row is None:
            row = codes.rows[in_range(stage, 0, self._T, "stage")] = bytearray(len(codes.ids))
        elif row[slot]:
            raise ValueError(
                f"more than one completion for example {example_id!r} at stage {stage}"
            )
        row[slot] = _evaluate(text, self._expected[slot])

    def scores(self, tag: str) -> StageCodes:
        """The condition's scores once every completion is added; no completion
        at all, or an example unscored at one of its stages, is an error."""
        codes = self.codes[tag]
        rows = codes.rows
        if not rows:
            raise ValueError(f"no completions found for condition {tag}")
        missing = sum(row.count(0) for row in rows.values())
        if missing:
            raise ValueError(
                f"condition {tag}: {missing} of {len(codes.ids)} examples x "
                f"{len(rows)} stages have no completion"
            )
        return codes


def score_completions(completions, examples, T: int) -> dict[str, StageCodes]:
    """Condition -> StageCodes of completion records; kept only for perfbench's tracer."""
    scorer = Scorer(examples, (), sorted({c.condition for c in completions}), T)
    for c in completions:
        scorer.add(c.example_id, c.condition, c.stage, "", c.text)
    return {tag: scorer.scores(tag) for tag in scorer.codes}


def rates(counts: Sequence[int]) -> dict[str, float]:
    """Per-metric rates of five category counts (in CATEGORY_ORDER), keyed
    by METRICS: one block's score, or the micro mean over several blocks."""
    total = sum(counts)
    if not total:
        raise ValueError("cannot aggregate zero scores")
    return {
        metric: sum(counts[i] for i in places) / total for metric, places in _COUNTED.items()
    }


# Code -> the end of its lines: the category's flags and the category.
_LINE_TAIL = {
    CODE[c]: f', "flags": {json.dumps(f._asdict())}, "category": "{c.value}"}}\n'
    for c, f in FLAGS.items()
}


def write_scores_jsonl(path: str | Path, codes: StageCodes) -> None:
    """One line per slot, stage by stage, each byte-equal to json.dumps of
    {"example_id", "stage", "block", "flags", "category"}; every slot must
    hold a score. Each id is escaped once, by json.dumps's own function."""
    heads = [f'{{"example_id": {_escape(example_id)}, "stage": ' for example_id in codes.ids]
    blocks = [f', "block": {b:d}' for b, (lo, hi) in codes.blocks.items() for _ in range(lo, hi)]
    write_lines(path, ("".join([
        f"{head}{stage:d}{block}{_LINE_TAIL[code]}"
        for head, block, code in zip(heads, blocks, codes.rows[stage])
    ]) for stage in sorted(codes.rows)))


def read_scores_jsonl(paths: Iterable[str | Path]) -> StageCodes:
    """One condition's scores, as write_scores_jsonl took them, from its
    score files; its stages may be split across them. T is the largest
    block id read. Flags that contradict the category name the line; an
    example in two blocks, a block outside 1..T, a stage outside 0..T and
    a second score for one (stage, example) name the file."""
    lines = [(path, line) for path in paths for line in read_jsonl(path, _score_line, ValueError)]
    if not lines:
        raise ValueError("no score records found")
    block_of: dict[str, int] = {}  # example id -> its block, the same in every file
    for path, (example_id, _, block_id, _) in lines:
        if block_of.setdefault(example_id, block_id) != block_id:
            raise ValueError(f"{path}: example {example_id!r} is in block "
                             f"{block_of[example_id]} and in block {block_id}")
    T = max(block_of.values())
    codes = StageCodes((block_id, example_id) for example_id, block_id in block_of.items())
    slots = {example_id: slot for slot, example_id in enumerate(codes.ids)}
    for path, (example_id, stage, block_id, code) in lines:
        try:
            in_range(block_id, 1, T, "block")
            if stage not in codes.rows:
                codes.rows[in_range(stage, 0, T, "stage")] = bytearray(len(codes.ids))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        row, slot = codes.rows[stage], slots[example_id]
        if row[slot]:
            raise ValueError(
                f"{path}: more than one score for example {example_id!r} at stage {stage}"
            )
        row[slot] = code
    return codes


def _score_line(raw) -> tuple[str, int, int, int]:
    """(example id, stage, block, category code) of one score line."""
    category = ErrorCategory(raw["category"])
    if raw["flags"] != FLAGS[category]._asdict():
        raise ValueError(f"flags {raw['flags']} contradict {category.value}")
    return (string(raw["example_id"], "example_id"), integer(raw["stage"], "stage"),
            integer(raw["block"], "block"), CODE[category])


def write_category_csv(path: str | Path, counts: Sequence[int]) -> None:
    """Category-count table of five counts in CATEGORY_ORDER, rows in that order."""
    rows = ([CATEGORY_LABELS[c], n] for c, n in zip(CATEGORY_ORDER, counts))
    write_csv(path, ["category", "count"], rows)
