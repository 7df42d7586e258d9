"""Metric flags, the five-way error taxonomy, and block aggregation."""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import pytest

from _support import random_call, random_text, score_tuples
from toolstream.calls import ApiCall, parse_first_call, render_call
from toolstream import scoring
from toolstream.clmetrics import _mean
from toolstream.corpus import StreamSpec, extract_examples, load_corpus
from toolstream.files import write_jsonl_records
from toolstream.report import format_pct, run_report
from toolstream.scoring import (
    CATEGORY_LABELS,
    CATEGORY_ORDER,
    CODE,
    FLAGS,
    ErrorCategory,
    MetricFlags,
    StageCodes,
    evaluate_completion,
    rates,
    read_scores_jsonl,
    score_completions,
    write_category_csv,
    write_scores_jsonl,
)
from toolstream.transform import Condition, render_prompt

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


def _report_means(tmp_path, blocks, stage=None):
    """final_means.json's entry for condition A of a report whose corpus
    has one API per entry of `blocks`, and one example per letter of the
    entry, scored at `stage` (T by default) as the letter says: "e" exact,
    "w" wrong API, "m" malformed. None when the report writes no means."""
    T = len(blocks)
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl_records(corpus, [
        {"id": f"ep{b}_{k}", "turns": [{"role": "user", "text": "go"},
                                       {"role": "api_request", "text": f"[Api{b}(x='1')]"}]}
        for b, kinds in enumerate(blocks) for k in range(len(kinds))
    ])
    texts = {"w": "[Other()]", "m": "no call"}
    completions = tmp_path / "completions_A.jsonl"
    write_jsonl_records(completions, [
        {"example_id": ex.id, "condition": "A", "stage": T if stage is None else stage,
         "prompt_hash": render_prompt(ex, Condition.A_STRIPPED).prompt_hash,
         "text": texts.get(kind) or render_call(ex.expected)}
        for ep, kind in zip(load_corpus(corpus), "".join(blocks))
        for ex in extract_examples(ep)
    ])
    out = run_report(corpus, tmp_path / "out", StreamSpec(T=T, seed=0), [Condition.A_STRIPPED],
                     import_paths=[completions])
    path = out / "final_means.json"
    return json.loads(path.read_text(encoding="utf-8"))["A"] if path.exists() else None


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
        with pytest.raises(ValueError, match="cannot aggregate zero scores"):
            rates([])

    def test_macro_mean_reference_rows(self, reference_paths, tmp_path):
        # final_means.json's macro mean is the unweighted mean of the final
        # stage's block rates, the matrix row at T, in the stream's order.
        out = run_report(reference_paths["corpus"], tmp_path / "out", StreamSpec(T=4, seed=42),
                         [Condition.A_STRIPPED, Condition.B_TRAJECTORY],
                         import_paths=[reference_paths["completions_A"],
                                       reference_paths["completions_B"]])
        means = json.loads((out / "final_means.json").read_text(encoding="utf-8"))
        table = {tuple(row[:2]): row[2:] for row in
                 (line.split(",") for line in (out / "final_table.csv").read_text().split())}
        for tag, metric, blocks, mean in (("B", "exact", (57.9, 61.5, 44.7, 63.6), "56.9"),
                                          ("A", "name", (64.3, 62.5, 60.2, 79.4), "66.6")):
            assert sorted(map(float, table[tag, metric][:-1])) == sorted(blocks)
            assert format_pct(means[tag]["macro"][metric]) == table[tag, metric][-1] == mean
            final_row = (out / f"matrix_{metric}_{tag}.csv").read_text().split()[-1].split(",")
            assert final_row[0] == "4"
            assert means[tag]["macro"][metric] == _mean([float(v) for v in final_row[1:]])

    def test_macro_single_block(self, tmp_path):
        # Blocks with one rate have that rate as their macro mean, which is
        # then also the micro mean.
        means = _report_means(tmp_path, ["emww", "wemw"])
        assert means["macro"] == means["micro"] == {
            "exact": 0.25, "name": 0.25, "name_any": 0.25, "malformed": 0.25,
        }

    def test_macro_adds_left_to_right_on_every_interpreter(self, tmp_path):
        # Ten blocks at 0.1 each, summed left to right, give
        # 0.9999999999999999; the compensated sum() of Python 3.12 and
        # later gives 1.0. The micro mean over the 100 examples is 0.1.
        means = _report_means(tmp_path, ["em" + "w" * 8] * 10)
        mean = 0.09999999999999999
        assert means["macro"] == {
            "exact": mean, "name": mean, "name_any": mean, "malformed": mean,
        }
        assert means["micro"]["exact"] == 0.1

    def test_macro_empty_rejected(self, tmp_path):
        # A run with no final-stage scores averages no blocks: it writes no
        # macro mean at all.
        out = tmp_path / "out"
        assert _report_means(tmp_path, ["ew", "me"], stage=1) is None
        assert not (out / "final_table.csv").exists()
        assert (out / "scores_A.jsonl").exists()

    def test_micro_pooled(self):
        rows = [(True, True, True, True)] * 3 + [(False, False, False, False)]
        micro = rates([a + b for a, b in zip(_counts(rows), _counts(rows))])
        assert micro["exact"] == 0.75
        assert micro["malformed"] == 0.25


class TestCategoryProperties:
    def test_partition_and_chain_under_fuzz(self):
        rng = random.Random(123)
        expected_pool = [random_call(rng) for _ in range(10)]
        scores = []
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
            scores.append((f"f:{i}", 1, 1, evaluate_completion(completion, expected)))
        categories = [category for *_, category in scores]
        counts = _stage_codes(scores).counts(1)
        assert sum(counts) == len(scores)
        assert counts == [categories.count(c) for c in CATEGORY_ORDER]
        flags = [FLAGS[category] for category in categories]
        n_exact = sum(f.exact_ok for f in flags)
        n_any = sum(f.name_any_ok for f in flags)
        n_name = sum(f.name_ok for f in flags)
        n_parsed = sum(f.parsed for f in flags)
        assert n_exact <= n_any <= n_name <= n_parsed
        # category/flag consistency
        for category, f in zip(categories, flags):
            assert (category is ErrorCategory.EXACT_FULL_CALL) == f.exact_ok
            assert (category is ErrorCategory.MALFORMED_NO_CALL) == (not f.parsed)
            assert (category is ErrorCategory.WRONG_API) == (f.parsed and not f.name_ok)


class TestExports:
    def test_scores_jsonl_roundtrip(self, tmp_path):
        # Seeded random scores read back as written: T 2-6, ids with
        # quotes, backslashes, non-ASCII and U+2028, stage subsets, and one
        # condition's stages split across two files.
        rng = random.Random(30)
        pieces = ("e", 'q"', "b\\", "é", "例", "\u2028", ":", " ", "\U0001f600")
        split = 0
        for case in range(60):
            T = rng.randint(2, 6)
            ids = sorted({"".join(rng.choice(pieces) for _ in range(rng.randint(1, 4))) + str(i)
                          for i in range(rng.randint(1, 30))})
            # The reader takes T to be the largest block id, so one example is in block T.
            pairs = [(T if i == 0 else rng.randint(1, T), example_id)
                     for i, example_id in enumerate(ids)]
            codes = StageCodes(pairs)
            stages = sorted(rng.sample(range(T + 1), rng.randint(1, T + 1)))
            codes.rows = {stage: bytearray(rng.choice(list(CODE.values())) for _ in ids)
                          for stage in stages}
            cut = rng.randrange(1, len(stages)) if len(stages) > 1 and rng.random() < 0.5 else 0
            split += cut > 0
            paths = []
            for part in (stages[:cut], stages[cut:]) if cut else (stages,):
                piece = StageCodes(pairs)
                piece.rows = {stage: codes.rows[stage] for stage in part}
                paths.append(tmp_path / f"scores_{case}_{len(paths)}.jsonl")
                write_scores_jsonl(paths[-1], piece)
            back = read_scores_jsonl(paths)
            assert (back.ids, back.blocks, back.rows) == (codes.ids, codes.blocks, codes.rows)
        assert split > 10

    def test_scores_jsonl_bytes_equal_json_dumps(self, tmp_path):
        ids = ['plain', 'quote"d', "back\\slash", "caf\u00e9", "new\nline", "tab\there"]
        blocks = (0, 9, 10, 2, 9, 123)
        # Every category at every stage, each id with its one block; the
        # file holds them by stage, block and id. The writer takes any block.
        entries = [
            (example_id, stage, block_id, CATEGORY_ORDER[(i + stage) % len(CATEGORY_ORDER)])
            for stage in (0, 4, 12)
            for i, (example_id, block_id) in enumerate(zip(ids, blocks))
        ]
        path = tmp_path / "scores.jsonl"
        write_scores_jsonl(path, _stage_codes(entries))
        expected = "".join(
            json.dumps(
                {
                    "example_id": example_id,
                    "stage": stage,
                    "block": block_id,
                    "flags": {
                        "parsed": FLAGS[category].parsed,
                        "name_ok": FLAGS[category].name_ok,
                        "name_any_ok": FLAGS[category].name_any_ok,
                        "exact_ok": FLAGS[category].exact_ok,
                    },
                    "category": category.value,
                }
            )
            + "\n"
            for example_id, stage, block_id, category in sorted(
                entries, key=lambda e: (e[1], e[2], e[0])
            )
        )
        assert path.read_bytes() == expected.encode("utf-8")
        # The reader checks blocks against 1..T and stages against 0..T, T
        # the largest block id: the same ids in such blocks read back.
        valid = [(example_id, stage // 3, (1, 3, 3, 2, 1, 4)[ids.index(example_id)], category)
                 for example_id, stage, _, category in entries]
        write_scores_jsonl(path, _stage_codes(valid))
        assert score_tuples(read_scores_jsonl([path])) == sorted(
            valid, key=lambda e: (e[1], e[2], e[0])
        )

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
        with pytest.raises(ValueError, match="line 1: flags .* contradict wrong_api"):
            read_scores_jsonl([path])

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
    scores = score_tuples(score_completions(completions, examples, 2)["A"])
    # One view per completion; the scanner sees only the 3 texts the view
    # declines, and each expected call is normalized once.
    assert counts == {"view": 6, "parse": 3, "normalize": 2}
    assert [category for *_, category in scores] == [
        ErrorCategory.EXACT_FULL_CALL, ErrorCategory.MALFORMED_NO_CALL
    ] * 3
    for (*_, category), c in zip(scores, completions):
        expected = examples[c.example_id].expected
        assert category is evaluate_completion(c.text, expected)

    # An escaped value is a view miss that the scanner parses: one parse, and
    # one normalize besides the expected call's.
    counts.update(view=0, parse=0, normalize=0)
    escaped = [SimpleNamespace(example_id="e1", condition="A", stage=0,
                               text=r"[GetWeather(city='Par\'is')]")]
    scores = score_tuples(score_completions(escaped, {"e1": examples["e1"]}, 2)["A"])
    assert counts == {"view": 1, "parse": 1, "normalize": 1 + 1}
    assert scores[0][3] is ErrorCategory.CORRECT_API_WRONG_PARAMS


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
        scores = score_tuples(score_completions(ordered, examples, 4)["A"])
        assert [(stage, block_id, example_id) for example_id, stage, block_id, _ in scores] == want
        assert all(c is category[stage, example_id] for example_id, stage, _, c in scores)

    first = completions[0]
    with pytest.raises(ValueError, match="more than one completion") as excinfo:
        score_completions(completions + [first], examples, 4)
    assert str(excinfo.value) == (
        f"more than one completion for example {first.example_id!r} at stage 4"
    )
    with pytest.raises(ValueError, match="unknown example id") as excinfo:
        score_completions(completions + [SimpleNamespace(**dict(vars(first), example_id="x:1"))],
                          examples, 4)
    assert str(excinfo.value) == "completion references unknown example id 'x:1'"
    with pytest.raises(ValueError, match="have no completion") as excinfo:
        score_completions(shuffled[1:], examples, 4)
    assert str(excinfo.value) == "condition A: 1 of 12 examples x 3 stages have no completion"
    assert score_completions([], examples, 4) == {}
