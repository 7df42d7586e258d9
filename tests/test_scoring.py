"""Metric flags, the five-way error taxonomy, and block aggregation."""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import pytest

from _support import random_call, random_text, score_records
from toolstream.calls import ApiCall, parse_first_call, render_call
from toolstream import scoring
from toolstream.report import format_pct
from toolstream.scoring import (
    CATEGORY_LABELS,
    CATEGORY_ORDER,
    CODE,
    FLAGS,
    AggregationError,
    ErrorCategory,
    MetricFlags,
    ScoreRecord,
    StageCodes,
    aggregate_macro,
    evaluate_completion,
    rates,
    read_scores_jsonl,
    score_completions,
    write_category_csv,
    write_scores_jsonl,
)

WEATHER = ApiCall("GetWeather", (("city", "Paris"),))


def _flags(completion, expected):
    return FLAGS[evaluate_completion(completion, expected)]


class TestScoreExample:
    def test_exact_match(self):
        flags = _flags("[GetWeather(city='Paris')]", WEATHER)
        assert flags == MetricFlags(parsed=True, name_ok=True, name_any_ok=True, exact_ok=True)

    def test_wrong_value(self):
        flags = _flags("[GetWeather(city='Lyon')]", WEATHER)
        assert flags.parsed and flags.name_ok
        assert not flags.name_any_ok and not flags.exact_ok

    def test_no_call(self):
        flags = _flags("I will check the weather.", WEATHER)
        assert flags == MetricFlags(parsed=False, name_ok=False, name_any_ok=False, exact_ok=False)

    def test_quote_style_does_not_matter(self):
        assert _flags('[GetWeather(city="Paris")]', WEATHER).exact_ok

    def test_extra_param_breaks_exact_not_name_any(self):
        flags = _flags("[GetWeather(city='Paris', units='C')]", WEATHER)
        assert flags.name_any_ok and not flags.exact_ok

    def test_partial_params(self):
        expected = ApiCall("Book", (("origin", "LHR"), ("dest", "CDG")))
        flags = _flags("[Book(origin='LHR', dest='AMS')]", expected)
        assert flags.name_any_ok and not flags.exact_ok

    def test_param_order_ignored(self):
        expected = ApiCall("Book", (("origin", "LHR"), ("dest", "CDG")))
        assert _flags("[Book(dest='CDG', origin='LHR')]", expected).exact_ok


# The scanner alone resolves quotes and escapes; normalization only trims
# and sorts. So a value that still holds a quote or backslash after
# scanning is compared as it stands.
@pytest.mark.parametrize(
    "completion,expected_text,exact",
    [
        ("""[F(x="'Paris'")]""", "[F(x='Paris')]", False),
        (r"[F(x='a\\\'b')]", r"[F(x='a\'b')]", False),
        ('[F(x="Paris")]', "[F(x='Paris')]", True),
        ("[F(x=' Paris ')]", "[F(x='Paris')]", True),
        ("[F(x=Paris )]", "[F(x='Paris')]", True),
    ],
)
def test_value_equality_golden(completion, expected_text, exact):
    expected = parse_first_call(expected_text).call
    category = evaluate_completion(completion, expected)
    flags = FLAGS[category]
    assert flags.parsed and flags.name_ok
    assert flags.exact_ok is exact
    assert category is (
        ErrorCategory.EXACT_FULL_CALL if exact else ErrorCategory.CORRECT_API_WRONG_PARAMS
    )


class TestClassifyError:
    def test_malformed(self):
        assert evaluate_completion("nope", WEATHER) is ErrorCategory.MALFORMED_NO_CALL

    def test_wrong_api(self):
        category = evaluate_completion("[GetNews(city='Paris')]", WEATHER)
        assert category is ErrorCategory.WRONG_API

    def test_exact(self):
        category = evaluate_completion("[GetWeather(city='Paris')]", WEATHER)
        assert category is ErrorCategory.EXACT_FULL_CALL

    def test_some_params(self):
        expected = ApiCall("Book", (("origin", "LHR"), ("dest", "CDG")))
        category = evaluate_completion("[Book(origin='LHR', dest='AMS')]", expected)
        assert category is ErrorCategory.CORRECT_API_SOME_PARAMS

    def test_wrong_params(self):
        category = evaluate_completion("[GetWeather(city='Lyon')]", WEATHER)
        assert category is ErrorCategory.CORRECT_API_WRONG_PARAMS

    def test_empty_expected_with_extra_params_is_wrong_params(self):
        ping = ApiCall("Ping")
        category = evaluate_completion("[Ping(x='1')]", ping)
        assert not FLAGS[category].name_any_ok
        assert category is ErrorCategory.CORRECT_API_WRONG_PARAMS

    def test_empty_expected_exact(self):
        category = evaluate_completion("[Ping()]", ApiCall("Ping"))
        assert category is ErrorCategory.EXACT_FULL_CALL


def _counts(flag_rows):
    # Each flag row names the one category whose FLAGS row it is.
    category_of = {flags: category for category, flags in FLAGS.items()}
    categories = [category_of[MetricFlags(*row)] for row in flag_rows]
    return [categories.count(c) for c in CATEGORY_ORDER]


def _stage_codes(entries):
    """StageCodes holding (example_id, stage, block_id, category) entries."""
    codes = StageCodes({(block_id, example_id) for example_id, _, block_id, _ in entries})
    for example_id, stage, _, category in entries:
        row = codes.rows.setdefault(stage, bytearray(len(codes.ids)))
        row[codes.ids.index(example_id)] = CODE[category]
    return codes


class TestAggregation:
    def test_block_fractions(self):
        rows = [(True, True, True, True)] * 45 + [(False, False, False, False)] * 81
        score = rates(_counts(rows))
        assert score["exact"] == 45 / 126
        assert round(score["exact"], 3) == 0.357
        assert format_pct(score["exact"]) == "35.7"

    def test_all_exact(self):
        score = rates(_counts([(True, True, True, True)] * 7))
        assert score["exact"] == score["name"] == score["name_any"] == 1.0
        assert score["malformed"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            rates([])

    def test_macro_mean_reference_rows(self):
        def block(vals):
            return {"exact": vals[0], "name": vals[1], "name_any": vals[2], "malformed": 0.0}

        exact_blocks = [block((v / 100, 0, 0)) for v in (57.9, 61.5, 44.7, 63.6)]
        assert format_pct(aggregate_macro(exact_blocks)["exact"]) == "56.9"
        name_blocks = [block((0, v / 100, 0)) for v in (64.3, 62.5, 60.2, 79.4)]
        assert format_pct(aggregate_macro(name_blocks)["name"]) == "66.6"

    def test_macro_single_block(self):
        single = rates(_counts([(True, True, True, True)] * 3))
        macro = aggregate_macro([single])
        assert macro["exact"] == single["exact"]

    def test_macro_adds_left_to_right_on_every_interpreter(self):
        # Ten 0.1s summed left to right give 0.9999999999999999; the
        # compensated sum() of Python 3.12 and later gives 1.0.
        blocks = [
            {"exact": 0.1, "name": 0.1, "name_any": 0.1, "malformed": 0.1}
            for _ in range(10)
        ]
        mean = 0.09999999999999999
        assert aggregate_macro(blocks) == {
            "exact": mean, "name": mean, "name_any": mean, "malformed": mean,
        }

    def test_macro_empty_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_macro([])

    def test_micro_pooled(self):
        rows = [(True, True, True, True)] * 3 + [(False, False, False, False)]
        micro = rates([a + b for a, b in zip(_counts(rows), _counts(rows))])
        assert micro["exact"] == 0.75
        assert micro["malformed"] == 0.25


class TestCategoryProperties:
    def test_partition_and_chain_under_fuzz(self):
        rng = random.Random(123)
        expected_pool = [random_call(rng) for _ in range(10)]
        records = []
        for i in range(600):
            expected = expected_pool[i % len(expected_pool)]
            roll = rng.random()
            if roll < 0.4:
                completion = random_text(rng)
            elif roll < 0.6:
                completion = render_call(expected)
            elif roll < 0.8:
                completion = render_call(random_call(rng))
            else:
                mutated = ApiCall(
                    expected.name,
                    tuple((k, v + "_x") for k, v in expected.params),
                )
                completion = render_call(mutated)
            category = evaluate_completion(completion, expected)
            records.append(
                ScoreRecord(
                    example_id=f"f:{i}",
                    stage=1,
                    block_id=1,
                    category=category,
                )
            )
        codes = _stage_codes([(r.example_id, 1, 1, r.category) for r in records])
        counts = codes.counts(1)
        assert sum(counts) == len(records)
        assert counts == [sum(r.category is c for r in records) for c in CATEGORY_ORDER]
        flags = [FLAGS[r.category] for r in records]
        n_exact = sum(f.exact_ok for f in flags)
        n_any = sum(f.name_any_ok for f in flags)
        n_name = sum(f.name_ok for f in flags)
        n_parsed = sum(f.parsed for f in flags)
        assert n_exact <= n_any <= n_name <= n_parsed
        # category/flag consistency
        for r, f in zip(records, flags):
            assert (r.category is ErrorCategory.EXACT_FULL_CALL) == f.exact_ok
            assert (r.category is ErrorCategory.MALFORMED_NO_CALL) == (not f.parsed)
            assert (r.category is ErrorCategory.WRONG_API) == (f.parsed and not f.name_ok)


class TestExports:
    def test_scores_jsonl_roundtrip(self, tmp_path):
        entries = [("e:0", 4, 2, ErrorCategory.EXACT_FULL_CALL),
                   ("e:1", 4, 2, ErrorCategory.WRONG_API)]
        path = tmp_path / "scores.jsonl"
        write_scores_jsonl(path, _stage_codes(entries))
        loaded = read_scores_jsonl(path)
        assert [(r.example_id, r.stage, r.block_id, r.category) for r in loaded] == entries

    def test_scores_jsonl_bytes_equal_json_dumps(self, tmp_path):
        ids = ['plain', 'quote"d', "back\\slash", "caf\u00e9", "new\nline", "tab\there"]
        blocks = (0, 9, 10, 2, 9, 123)
        # Every category at every stage, each id with its one block; the
        # file holds them by stage, block and id.
        entries = [
            (example_id, stage, block_id, CATEGORY_ORDER[(i + stage) % len(CATEGORY_ORDER)])
            for stage in (0, 4, 12)
            for i, (example_id, block_id) in enumerate(zip(ids, blocks))
        ]
        path = tmp_path / "scores.jsonl"
        write_scores_jsonl(path, _stage_codes(entries))
        records = [
            ScoreRecord(example_id, stage, block_id, category)
            for example_id, stage, block_id, category in sorted(
                entries, key=lambda e: (e[1], e[2], e[0])
            )
        ]
        expected = "".join(
            json.dumps(
                {
                    "example_id": r.example_id,
                    "stage": r.stage,
                    "block": r.block_id,
                    "flags": {
                        "parsed": FLAGS[r.category].parsed,
                        "name_ok": FLAGS[r.category].name_ok,
                        "name_any_ok": FLAGS[r.category].name_any_ok,
                        "exact_ok": FLAGS[r.category].exact_ok,
                    },
                    "category": r.category.value,
                }
            )
            + "\n"
            for r in records
        )
        assert path.read_bytes() == expected.encode("utf-8")
        fields = [(r.example_id, r.stage, r.block_id, r.category) for r in records]
        assert [
            (r.example_id, r.stage, r.block_id, r.category) for r in read_scores_jsonl(path)
        ] == fields

    @pytest.mark.parametrize(
        "flags",
        [
            {"parsed": True, "name_ok": True, "name_any_ok": True, "exact_ok": True},
            {"parsed": "no", "name_ok": False, "name_any_ok": False, "exact_ok": False},
            {"parsed": True, "name_ok": False, "name_any_ok": False},
        ],
    )
    def test_flags_contradicting_the_category_rejected(self, tmp_path, flags):
        # A wrong_api record may carry only wrong_api's flags; "no" is not
        # read as true, and a missing flag is not read as false.
        path = tmp_path / "scores.jsonl"
        record = {
            "example_id": "e:1", "stage": 4, "block": 1, "flags": flags, "category": "wrong_api",
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(AggregationError, match="line 1"):
            read_scores_jsonl(path)

    def test_category_csv_row_order(self, tmp_path):
        path = tmp_path / "categories.csv"
        write_category_csv(path, _counts([(True, True, True, True), (False, False, False, False)]))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "category,count"
        labels = [line.rsplit(",", 1)[0].strip('"') for line in lines[1:]]
        assert labels == [CATEGORY_LABELS[c] for c in CATEGORY_ORDER]
        counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert counts == [1, 0, 0, 0, 1]


def test_score_completions_normalizes_each_expected_call_once(monkeypatch):
    counts = {"view": 0, "parse": 0, "normalize": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # Scoring must go through these module-level names, which tracing wraps.
    monkeypatch.setattr(scoring, "scoring_view", counted("view", scoring.scoring_view))
    monkeypatch.setattr(scoring, "parse_first_call", counted("parse", parse_first_call))
    monkeypatch.setattr(
        scoring, "normalize_params", counted("normalize", scoring.normalize_params)
    )
    examples = {
        "e1": SimpleNamespace(id="e1", block_id=0, expected=WEATHER),
        "e2": SimpleNamespace(id="e2", block_id=1, expected=ApiCall("Ping")),
    }
    texts = {"e1": "[GetWeather(city='Paris')]", "e2": "no call"}
    completions = [
        SimpleNamespace(example_id=example_id, condition="A", stage=stage, text=texts[example_id])
        for stage in range(3)
        for example_id in ("e1", "e2")
    ]
    records = score_records(score_completions(completions, examples, 2)["A"])
    # One view per completion; the scanner sees only the 3 texts the view
    # declines, and each expected call is normalized once.
    assert counts == {"view": 6, "parse": 3, "normalize": 2}
    assert [r.category for r in records] == [
        ErrorCategory.EXACT_FULL_CALL, ErrorCategory.MALFORMED_NO_CALL
    ] * 3
    for r, c in zip(records, completions):
        expected = examples[c.example_id].expected
        assert r.category is evaluate_completion(c.text, expected)

    # An escaped value is a view miss that the scanner parses: one parse, and
    # one normalize besides the expected call's.
    counts.update(view=0, parse=0, normalize=0)
    escaped = [SimpleNamespace(example_id="e1", condition="A", stage=0,
                               text=r"[GetWeather(city='Par\'is')]")]
    records = score_records(score_completions(escaped, {"e1": examples["e1"]}, 2)["A"])
    assert counts == {"view": 1, "parse": 1, "normalize": 1 + 1}
    assert records[0].category is ErrorCategory.CORRECT_API_WRONG_PARAMS


def test_score_completions_order_and_errors():
    rng = random.Random(25)
    examples = {}
    for i in range(12):
        example_id = f"ep{rng.randrange(100):02d}:{i}"
        examples[example_id] = SimpleNamespace(
            id=example_id, block_id=rng.randint(1, 3), expected=WEATHER
        )
    texts = ["[GetWeather(city='Paris')]", "[GetWeather(city='Rome')]", "[Ping()]", "no call"]
    completions = [
        SimpleNamespace(example_id=example_id, stage=stage, text=rng.choice(texts), condition="A")
        for stage in (4, 0, 2)
        for example_id in examples
    ]
    category = {
        (c.stage, c.example_id): evaluate_completion(c.text, WEATHER) for c in completions
    }
    want = sorted(
        (c.stage, examples[c.example_id].block_id, c.example_id) for c in completions
    )
    shuffled = list(completions)
    rng.shuffle(shuffled)
    # Records come in (stage, block_id, example_id) order whatever the
    # order of the completions.
    for ordered in (completions, completions[::-1], shuffled):
        records = score_records(score_completions(ordered, examples, 4)["A"])
        assert [(r.stage, r.block_id, r.example_id) for r in records] == want
        assert all(r.category is category[r.stage, r.example_id] for r in records)

    first = completions[0]
    with pytest.raises(AggregationError) as excinfo:
        score_completions(completions + [first], examples, 4)
    assert str(excinfo.value) == (
        f"more than one completion for example {first.example_id!r} at stage 4"
    )
    with pytest.raises(AggregationError) as excinfo:
        score_completions(completions + [SimpleNamespace(**dict(vars(first), example_id="x:1"))],
                          examples, 4)
    assert str(excinfo.value) == "completion references unknown example id 'x:1'"
    with pytest.raises(AggregationError) as excinfo:
        score_completions(shuffled[1:], examples, 4)
    assert str(excinfo.value) == "condition A: 1 of 12 examples x 3 stages have no completion"
    assert score_completions([], examples, 4) == {}
